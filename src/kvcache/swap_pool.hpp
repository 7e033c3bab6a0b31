/**
 * @file
 * Host-DRAM swap pool for preempted requests.
 *
 * When a co-located or decode instance exhausts GPU KV blocks, vLLM-style
 * engines preempt a request and swap its blocks to CPU memory over the
 * host PCIe path, swapping back in when space frees up. The paper's
 * Fig. 1a counts exactly these events for DistServe under load; WindServe
 * avoids them via Dynamic Rescheduling.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "kvcache/block_manager.hpp"

namespace windserve::kvcache {

/** Accounting for swapped-out request state in host memory. */
class SwapPool
{
  public:
    /** @param capacity_bytes host DRAM budget (the testbed has 768 GB). */
    explicit SwapPool(double capacity_bytes, double bytes_per_token);

    /** Record a request's KV moving to host. @return false if full. */
    bool swap_out(ReqId id, std::size_t tokens);

    /** Remove a request's KV from host (after swap-in or abort). */
    void swap_in(ReqId id);

    /**
     * Discard a request's host copy without a swap-in (crash cleanup).
     * Unlike swap_in this neither counts as a swap-in event nor throws
     * on unknown ids, so metrics and double-drop semantics stay clean.
     */
    void drop(ReqId id);

    bool holds(ReqId id) const { return tokens_.count(id) > 0; }

    /** Ids of all swapped-out requests, sorted (crash cleanup). */
    std::vector<ReqId> holders() const;
    std::size_t tokens_of(ReqId id) const;

    /** Bytes a swap (out or in) of @p tokens moves over the host link. */
    double bytes_for(std::size_t tokens) const;

    std::size_t num_swapped() const { return tokens_.size(); }
    double used_bytes() const { return used_bytes_; }

    /** Lifetime counters (for Fig. 1a). */
    std::uint64_t swap_out_events() const { return swap_out_events_; }
    std::uint64_t swap_in_events() const { return swap_in_events_; }
    std::uint64_t drops() const { return drops_; }
    double swapped_bytes_total() const { return swapped_bytes_total_; }

    /** Report every swap event to @p p as @p owner, as
     *  BlockManager::set_probe. */
    void set_probe(obs::Probe *p, obs::OwnerId owner)
    {
        probe_ = p;
        owner_ = owner;
    }

  private:
    double capacity_bytes_;
    double bytes_per_token_;
    double used_bytes_ = 0.0;
    std::unordered_map<ReqId, std::size_t> tokens_;
    std::uint64_t swap_out_events_ = 0;
    std::uint64_t swap_in_events_ = 0;
    std::uint64_t drops_ = 0;
    double swapped_bytes_total_ = 0.0;
    obs::Probe *probe_ = nullptr;
    obs::OwnerId owner_ = obs::kNoOwner;
};

} // namespace windserve::kvcache
