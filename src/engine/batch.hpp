/**
 * @file
 * Batch containers used by the per-instance execution engine.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "workload/request.hpp"

namespace windserve::engine {

using workload::Request;

/** A set of requests prefilled together in one forward pass. */
struct PrefillBatch {
    std::vector<Request *> requests;
    /** Sum of prompt tokens still to process across the batch. */
    std::size_t total_tokens = 0;
    /** Simulated completion time, once scheduled. */
    double expected_end = 0.0;
    /** Time the batch started executing. */
    double started = 0.0;

    bool empty() const { return requests.empty(); }
    std::size_t size() const { return requests.size(); }
};

class DecodeGroup;

/**
 * Set @p r 's emitted-token count to @p n. A running request must name
 * its @p group, whose context sum moves with it; passing none (or the
 * wrong group) for a running request throws std::logic_error.
 */
void set_generated(Request &r, std::size_t n, DecodeGroup *group = nullptr);

/**
 * One pipeline-parallel micro-batch group of decoding requests.
 *
 * With PP-k an instance runs k groups concurrently: each group's pass
 * traverses all pipeline stages, so per-iteration latency matches the
 * full model while aggregate decode throughput scales with k.
 *
 * Every per-member operation of a decode pass is O(1):
 *  - membership is the request's `decode_group` tag, which add(),
 *    remove() and clear() keep equal to this group's process-unique
 *    id for exactly the requests in members();
 *  - sum_context() is an exact running integer sum, adjusted by
 *    add()/remove() and by set_generated(), the only writer of
 *    Request::generated.
 * Groups are neither copyable nor movable: a copy would share the id.
 */
class DecodeGroup
{
  public:
    DecodeGroup();
    DecodeGroup(const DecodeGroup &) = delete;
    DecodeGroup &operator=(const DecodeGroup &) = delete;

    bool busy = false;
    /** Completion time of the in-flight iteration (valid while busy). */
    double iteration_end = 0.0;
    /**
     * Members participating in the in-flight iteration, snapshotted at
     * pass start. Continuous batching admits waiting requests into
     * `members` at any time — including mid-pass — but only the
     * snapshot earns the pass's token: a mid-pass joiner decodes
     * nothing until the next iteration starts.
     */
    std::vector<Request *> iteration_members;

    /** Running requests, in admission order. */
    const std::vector<Request *> &members() const { return members_; }
    std::size_t size() const { return members_.size(); }
    /** Sum of current context lengths (the Eq. 2 sumL). */
    std::size_t sum_context() const { return sum_context_; }
    /** Value this group writes into Request::decode_group. */
    std::uint32_t id() const { return id_; }

    bool contains(const Request *r) const { return r->decode_group == id_; }
    /** Admit @p r; throws std::logic_error if it is in any group. */
    void add(Request *r);
    /** Remove a request; @return true if it was present. */
    bool remove(Request *r);
    /** Drop every member (instance crash) and reset the pass state. */
    void clear();

  private:
    friend void set_generated(Request &r, std::size_t n, DecodeGroup *group);

    std::vector<Request *> members_;
    std::size_t sum_context_ = 0;
    std::uint32_t id_;
};

/** Sum of prompt tokens over a span of requests. */
std::size_t total_prompt_tokens(const std::vector<Request *> &requests);

} // namespace windserve::engine
