/**
 * @file
 * FCFS local scheduling policies (paper §3.1: "Each instance of
 * WindServe features a local scheduler responsible for scheduling
 * requests from the waiting queue into the running pipeline following a
 * First-Come-First-Serve order").
 *
 * Pure functions over queues and the block manager so the policies are
 * unit-testable without spinning up a whole instance.
 */
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "engine/batch.hpp"
#include "kvcache/block_manager.hpp"

namespace windserve::engine {

/** Limits applied when forming a prefill batch. */
struct PrefillBatchLimits {
    std::size_t max_tokens = 4096; ///< token budget per forward pass
    std::size_t max_requests = 64;
};

/**
 * Pop a FCFS prefill batch from @p queue, bounded by @p limits and by
 * what @p blocks can hold (each prompt's KV is allocated here).
 * The head request always fits alone if its KV can be allocated;
 * otherwise the batch is empty and the queue untouched.
 */
PrefillBatch form_prefill_batch(std::deque<Request *> &queue,
                                const PrefillBatchLimits &limits,
                                kvcache::BlockManager &blocks);

/**
 * Admit waiting decode requests FCFS into the smallest group while KV
 * for their current context can be allocated and the per-group cap
 * allows. Swapped-out requests are NOT admitted here (they need a
 * swap-in transfer first — the instance handles that asynchronously).
 * @return the admitted requests (already placed into groups with their
 * KV allocated).
 */
std::vector<Request *> admit_decodes(std::deque<Request *> &queue,
                                     std::vector<DecodeGroup> &groups,
                                     std::size_t max_per_group,
                                     kvcache::BlockManager &blocks);

/**
 * Choose a preemption victim for swap-out: the latest-arrived running
 * request (vLLM's policy), excluding @p protect. Candidates come from
 * group @p home, then from every other group that is not busy (a busy
 * group is mid-pass and cannot lose members); on equal arrival times
 * the first candidate in that order wins. @return nullptr if no
 * candidate exists.
 */
Request *select_swap_victim(const std::vector<DecodeGroup> &groups,
                            std::size_t home, const Request *protect);

/**
 * Choose a Dynamic Rescheduling victim: the LONGEST-context running
 * request (paper §3.3 — "WindServe tends to migrate longer sequences in
 * order to free up more space"), excluding requests already migrating.
 */
Request *select_migration_victim(const std::vector<DecodeGroup> &groups);

} // namespace windserve::engine
