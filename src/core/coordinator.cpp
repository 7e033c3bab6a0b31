#include "core/coordinator.hpp"

#include <algorithm>

#include "simcore/log.hpp"

namespace windserve::core {

Coordinator::Coordinator(CoordinatorConfig cfg, Profiler &prefill_profiler,
                         Profiler &decode_profiler)
    : cfg_(cfg), prefill_profiler_(prefill_profiler),
      decode_profiler_(decode_profiler)
{}

double
Coordinator::log_now() const
{
    return clock_ ? clock_->now() : sim::kNoLogTime;
}

void
Coordinator::compute_budget(const model::CostModel &decode_cost,
                            double ttft_slo, double tpot_slo,
                            double typical_batch, double typical_context)
{
    if (cfg_.budget_tokens != 0)
        return; // explicitly configured
    // Gate: if even the interference-slowed decode iteration would break
    // the TPOT SLO, the decode instance cannot assist at all.
    double slowed = decode_cost.sbd_decode_time(
        typical_batch, typical_batch * typical_context);
    if (slowed > tpot_slo) {
        cfg_.budget_tokens = 0;
        cfg_.enable_dispatch = false;
        return;
    }
    // Largest N whose SBD prefill stream fits the TTFT-fraction budget.
    double limit = cfg_.budget_ttft_fraction * ttft_slo;
    std::size_t lo = 0, hi = 65536;
    while (lo < hi) {
        std::size_t mid = (lo + hi + 1) / 2;
        if (decode_cost.sbd_prefill_time(static_cast<double>(mid)) <= limit)
            lo = mid;
        else
            hi = mid - 1;
    }
    cfg_.budget_tokens = lo;
    WS_LOG_AT(Info, "coordinator", log_now())
        << "assist budget = " << lo << " tokens (limit " << limit << "s)";
}

std::size_t
Coordinator::available_slots(const engine::Instance &decode) const
{
    // "if the KV blocks in the decoding instance are inadequate, the
    // available slot is set to 0."
    const auto &bm = decode.blocks();
    std::size_t reserve_blocks =
        bm.blocks_for(cfg_.dispatch_kv_reserve_tokens);
    if (bm.free_blocks() <= reserve_blocks)
        return 0;
    std::size_t free_tokens =
        (bm.free_blocks() - reserve_blocks) * bm.block_size();
    std::size_t pending = decode.assist_tokens_pending();
    std::size_t budget = cfg_.budget_tokens > pending
                             ? cfg_.budget_tokens - pending
                             : 0;
    return std::min(budget, free_tokens);
}

DispatchDecision
Coordinator::decide_dispatch(const workload::Request &r,
                             const engine::Instance &prefill,
                             const engine::Instance &decode)
{
    if (!cfg_.enable_dispatch)
        return DispatchDecision::PrefillInstance;
    double queued =
        static_cast<double>(prefill.waiting_prefill_tokens());
    double ttft_pred = prefill_profiler_.predict_ttft(
        queued, static_cast<double>(r.prompt_tokens),
        prefill.inflight_prefill_remaining());

    // Report the full Algorithm-1 deliberation: both candidates with
    // the loads that scored them. available_slots() is a pure read, so
    // evaluating it for the probe never perturbs the decision.
    const bool reporting =
        probe_ && probe_->wants(obs::ProbeKind::Dispatch);
    auto report = [&](bool to_decode, const char *reason,
                      std::size_t slots) {
        if (!reporting)
            return;
        probe_->emit(obs::ProbeKind::Dispatch, owner_, r.id,
                     obs::DispatchOp{to_decode, reason, r.prompt_tokens,
                                     slots, ttft_pred, cfg_.thrd, queued,
                                     prefill.inflight_prefill_remaining()});
    };

    if (ttft_pred <= cfg_.thrd) {
        report(false, "ttft_under_thrd",
               reporting ? available_slots(decode) : 0);
        return DispatchDecision::PrefillInstance;
    }
    std::size_t slots = available_slots(decode);
    if (slots >= r.prompt_tokens) {
        ++dispatches_;
        report(true, "ttft_over_thrd", slots);
        return DispatchDecision::DecodeInstance;
    }
    report(false, "no_decode_slots", slots);
    return DispatchDecision::PrefillInstance;
}

bool
Coordinator::maybe_reschedule(engine::Instance &decode,
                              const engine::Instance &prefill,
                              transfer::MigrationManager &migration)
{
    if (!cfg_.enable_rescheduling)
        return false;
    // Every gate below is a pure read, so their order cannot change the
    // outcome; occupancy goes first so the probe reports exactly the
    // pressure-triggered deliberations (the no-pressure common case is
    // not a decision worth remembering).
    const double occupancy = decode.blocks().occupancy();
    if (occupancy < cfg_.resched_occupancy_trigger)
        return false;

    const std::size_t resident = prefill.running_decode_requests() +
                                 prefill.waiting_decode_requests();
    auto report = [&](std::uint64_t req, bool started, const char *reason,
                      std::size_t victim_ctx) {
        if (!probe_)
            return;
        probe_->emit(obs::ProbeKind::Reschedule, owner_, req,
                     obs::RescheduleOp{started, reason, occupancy,
                                       cfg_.resched_occupancy_trigger,
                                       migration.active(), resident,
                                       victim_ctx});
    };

    if (migration.active() >= cfg_.max_concurrent_migrations) {
        report(0, false, "migration_cap", 0);
        return false;
    }
    // Hosting too many migrated decodes keeps the prefill instance in
    // chunked mode and starves TTFT; stop rescheduling until they drain.
    if (resident >= cfg_.max_migrated_resident) {
        report(0, false, "resident_cap", 0);
        return false;
    }
    engine::Request *victim =
        engine::select_migration_victim(decode.groups());
    if (victim == nullptr) {
        report(0, false, "no_victim", 0);
        return false;
    }
    const std::size_t victim_ctx = decode.progress(victim).context_length();
    if (!migration.start(victim)) {
        report(victim->id, false, "migration_start_failed", victim_ctx);
        return false;
    }
    report(victim->id, true, "occupancy_over_trigger", victim_ctx);
    ++reschedules_;
    WS_LOG_AT(Debug, "coordinator", log_now())
        << "reschedule req " << victim->id << " ctx " << victim_ctx;
    return true;
}

} // namespace windserve::core
