/**
 * @file
 * The inference request and its lifecycle timestamps.
 *
 * A request flows: arrival -> (global scheduling) -> prefill queue ->
 * prefill -> KV transfer -> decode queue -> decode iterations ->
 * completion. TTFT and TPOT (the paper's two headline metrics) are
 * derived purely from the stamps recorded here, including the queuing
 * components the paper decomposes in Figs. 1a and 3.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

namespace windserve::workload {

using RequestId = std::uint64_t;

/** Lifecycle states of a request. */
enum class RequestState {
    Created,         ///< generated, not yet arrived
    WaitingPrefill,  ///< in a prefill waiting queue
    Prefilling,      ///< prompt pass in flight
    Transferring,    ///< KV moving between instances
    WaitingDecode,   ///< in a decode waiting queue
    Decoding,        ///< generating output tokens
    Migrating,       ///< stall-free rescheduling in progress
    SwappedOut,      ///< preempted to host memory
    Finished,
    Aborted,         ///< gave up after the fault-recovery retry cap
};

const char *to_string(RequestState s);

/** Sentinel for "timestamp not recorded yet". */
constexpr double kNoTime = -1.0;

/** Request::decode_group value of a request in no decode group. */
constexpr std::uint32_t kNoDecodeGroup = 0;

/** One LLM inference request plus everything measured about it. */
struct Request {
    RequestId id = 0;
    std::size_t prompt_tokens = 0;
    std::size_t output_tokens = 0; ///< tokens until EOS (oracle length)
    double arrival_time = 0.0;

    RequestState state = RequestState::Created;
    /** Id of the engine::DecodeGroup this request is a running member
     *  of, kNoDecodeGroup otherwise. Only DecodeGroup writes it; it
     *  sits in the padding after `state`, so it costs no memory. */
    std::uint32_t decode_group = kNoDecodeGroup;

    // --- progress ---
    /** Decode tokens emitted so far. Written only through
     *  engine::set_generated(), which keeps the running context sum of
     *  the request's decode group exact. */
    std::size_t generated = 0;
    std::size_t prefilled = 0;     ///< prompt tokens processed (chunking)

    // --- timestamps (kNoTime until set) ---
    double prefill_enqueue_time = kNoTime;
    double prefill_start_time = kNoTime;
    double first_token_time = kNoTime; ///< prefill completion
    double transfer_done_time = kNoTime;
    double decode_enqueue_time = kNoTime;
    double decode_start_time = kNoTime;
    double finish_time = kNoTime;

    // --- inter-token latency (ITL) tracking ---
    /** Timestamp of the most recent emitted token. */
    double last_token_time = kNoTime;
    /** Largest gap between consecutive tokens (stall detector). */
    double max_token_gap = 0.0;

    /** Record a token emission at @p now, updating the ITL stats. */
    void note_token(double now)
    {
        if (last_token_time != kNoTime && now - last_token_time > max_token_gap)
            max_token_gap = now - last_token_time;
        last_token_time = now;
    }

    // --- event counters ---
    std::uint32_t swap_outs = 0;
    std::uint32_t migrations = 0;
    /** Bumped when a crash invalidates this request's in-flight work;
     *  stale completion callbacks compare against it and drop out. */
    std::uint32_t incarnation = 0;
    bool prefill_dispatched = false; ///< prefill ran on the decode instance
    bool was_chunked = false;

    /** Context length right now: prompt + generated tokens. */
    std::size_t context_length() const { return prompt_tokens + generated; }

    /** Final context length at completion. */
    std::size_t final_context() const
    {
        return prompt_tokens + output_tokens;
    }

    bool finished() const { return state == RequestState::Finished; }

    /** Time to first token; kNoTime if the first token never arrived. */
    double ttft() const;

    /**
     * Time per output token: mean inter-token latency after the first
     * token. Requests with a single output token have no TPOT sample
     * (the paper's definition excludes the first token).
     */
    double tpot() const;

    /** Prefill queuing delay component of TTFT. */
    double prefill_queueing_delay() const;

    /** Decode queuing delay (Fig. 1a / Fig. 3). */
    double decode_queueing_delay() const;

    /** End-to-end latency. */
    double e2e_latency() const;
};

// One Request is retained per trace entry, so its size is a per-request
// memory cost: the decode-group tag must stay inside existing padding.
static_assert(sizeof(void *) != 8 || sizeof(Request) == 144,
              "Request grew: per-request memory is pinned");

} // namespace windserve::workload
