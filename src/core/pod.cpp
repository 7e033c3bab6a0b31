#include "core/pod.hpp"

#include <stdexcept>

#include "engine/serving_system.hpp"
#include "fault/fault_injector.hpp"
#include "obs/telemetry.hpp"
#include "simcore/log.hpp"

namespace windserve::core {

using workload::Request;
using workload::RequestState;

Pod::Pod(sim::Simulator &sim, const WindServeConfig &cfg, PodHooks hooks,
         std::string name_prefix, std::size_t index)
    : sim_(sim), hooks_(std::move(hooks)),
      name_prefix_(std::move(name_prefix)), index_(index),
      enable_backup_(cfg.coordinator.enable_backup), topo_(cfg.topology)
{
    sim::Rng seed_rng(cfg.seed);

    hw::PdPlacement placement = hw::default_pd_placement(
        topo_, cfg.prefill_parallelism.num_gpus(),
        cfg.decode_parallelism.num_gpus());

    model::CostModel prefill_cost(cfg.model, topo_.gpu(0),
                                  cfg.prefill_parallelism, cfg.cost_params);
    model::CostModel decode_cost(cfg.model, topo_.gpu(0),
                                 cfg.decode_parallelism, cfg.cost_params);

    engine::InstanceConfig pcfg;
    pcfg.name = name_prefix_ + "prefill";
    pcfg.role = engine::InstanceRole::Prefill;
    pcfg.block_size = cfg.block_size;
    pcfg.max_batch_size = cfg.max_batch_size;
    pcfg.max_prefill_tokens = cfg.max_prefill_tokens;
    // Migrated decodes trigger chunked prefill here (§3.3). Large
    // chunks keep prefill throughput high; the few migrated decodes are
    // long-context requests with TPOT slack.
    pcfg.chunk_size = cfg.prefill_chunk_size;
    pcfg.chunked_prefill = true;
    pcfg.exec_noise_sigma = cfg.exec_noise_sigma;
    pcfg.swap_enabled = cfg.swap_enabled;
    pcfg.host_memory_bytes = cfg.host_memory_bytes;
    pcfg.kv_capacity_tokens_override = cfg.kv_capacity_tokens_override;
    prefill_ = std::make_unique<engine::Instance>(
        sim_, pcfg, prefill_cost, seed_rng.fork(),
        topo_.host_link(placement.prefill.front()));

    engine::InstanceConfig dcfg;
    dcfg.name = name_prefix_ + "decode";
    dcfg.role = engine::InstanceRole::Decode;
    dcfg.block_size = cfg.block_size;
    dcfg.max_batch_size = cfg.max_batch_size;
    dcfg.max_prefill_tokens = cfg.max_prefill_tokens;
    dcfg.chunk_size = cfg.chunk_size;
    dcfg.stream_based_disaggregation = cfg.enable_sbd;
    dcfg.exec_noise_sigma = cfg.exec_noise_sigma;
    dcfg.swap_enabled = cfg.swap_enabled;
    dcfg.host_memory_bytes = cfg.host_memory_bytes;
    dcfg.kv_capacity_tokens_override = cfg.kv_capacity_tokens_override;
    decode_ = std::make_unique<engine::Instance>(
        sim_, dcfg, decode_cost, seed_rng.fork(),
        topo_.host_link(placement.decode.front()));

    hw::Link pd_link = topo_.best_link(placement.prefill, placement.decode);
    transfer::KvTransferConfig xcfg = cfg.transfer;
    xcfg.name_prefix = name_prefix_ + xcfg.name_prefix;
    xfer_ = std::make_unique<transfer::KvTransferManager>(
        sim_, pd_link, cfg.model, xcfg);

    migration_ = std::make_unique<transfer::MigrationManager>(
        sim_, *xfer_, *decode_, *prefill_, backup_registry_, cfg.migration);
    backup_ = std::make_unique<transfer::BackupManager>(
        sim_, *xfer_, *decode_, *prefill_, backup_registry_, cfg.backup);

    // Dispatch must back off before the decode instance is memory-tight;
    // scale the KV reserve with the actual capacity.
    CoordinatorConfig coord_cfg = cfg.coordinator;
    coord_cfg.dispatch_kv_reserve_tokens = std::max(
        coord_cfg.dispatch_kv_reserve_tokens,
        static_cast<std::size_t>(cfg.dispatch_reserve_fraction *
                                 decode_cost.kv_capacity_tokens()));
    scheduler_ = std::make_unique<GlobalScheduler>(coord_cfg);
    scheduler_->bind_clock(&sim_);
    sim::Rng calib_rng = seed_rng.fork();
    scheduler_->calibrate(prefill_cost, decode_cost, cfg.ttft_slo,
                          cfg.tpot_slo, calib_rng, cfg.exec_noise_sigma);

    // ------------------------------------------------------------------
    // callback wiring
    // ------------------------------------------------------------------
    prefill_->callbacks.on_prefill_complete = [this](Request *r) {
        on_prefill_complete_at_prefill(r);
    };
    prefill_->callbacks.on_finished = [this](Request *r) {
        on_finished(r);
    };
    prefill_->callbacks.on_prefill_observation = [this](double n, double t) {
        scheduler_->prefill_profiler().observe_prefill(n, t);
    };

    decode_->callbacks.on_prefill_complete = [this](Request *r) {
        on_prefill_complete_at_decode(r);
    };
    decode_->callbacks.on_finished = [this](Request *r) { on_finished(r); };
    decode_->callbacks.on_assist_bounce = [this](Request *r) {
        // The coordinator's slot check raced with decode KV growth:
        // fall back to the prefill instance.
        prefill_->enqueue_prefill(r);
    };
    decode_->callbacks.on_decode_observation =
        [this](double b, double l, double t) {
            scheduler_->decode_profiler().observe_decode(b, l, t);
        };
    decode_->callbacks.on_step = [this] {
        migration_->on_source_step();
        scheduler_->coordinator().maybe_reschedule(*decode_, *prefill_,
                                                   *migration_);
        if (enable_backup_)
            backup_->maybe_backup();
    };

    migration_->on_migrated = [this](Request *r) {
        // enqueue_decode performs the Migrating -> WaitingDecode
        // transition itself.
        prefill_->enqueue_decode(r, /*kv_resident=*/true);
    };
}

Pod::~Pod() = default;

void
Pod::wire(const engine::Attachments &a, const std::string &pod_label)
{
    if (obs::Telemetry *t = a.telemetry) {
        obs::MetricRegistry &reg = t->registry();
        prefill_->register_metrics(reg);
        decode_->register_metrics(reg);
        reg.link(xfer_->forward_channel());
        reg.link(xfer_->reverse_channel());
        reg.link(xfer_->staged_channel());

        const Coordinator *coord = &scheduler_->coordinator();
        reg.counter("ws_sched_dispatches_total", pod_label,
                    [coord] {
                        return static_cast<double>(coord->dispatches());
                    },
                    "Dynamic prefill dispatches to the decode instance");
        reg.counter("ws_sched_reschedules_total", pod_label,
                    [coord] {
                        return static_cast<double>(coord->reschedules());
                    },
                    "Dynamic rescheduling migrations started");
        reg.gauge("ws_migrations_active", pod_label,
                  [this] {
                      return static_cast<double>(migration_->active());
                  },
                  "Stall-free migrations currently in flight");
        reg.counter("ws_migrations_completed_total", pod_label,
                    [this] {
                        return static_cast<double>(
                            migration_->completed());
                    },
                    "Stall-free migrations completed");
        reg.counter("ws_backups_taken_total", pod_label,
                    [this] {
                        return static_cast<double>(
                            backup_->backups_taken());
                    },
                    "Proactive KV backups taken");
    }
    if (a.probe) {
        probe_ = a.probe;
        prefill_->set_probe(probe_);
        decode_->set_probe(probe_);
        xfer_->set_probe(probe_);
        migration_->set_probe(probe_);
        backup_->set_probe(probe_);
        scheduler_->coordinator().set_probe(probe_);
    }
    if (fault::FaultInjector *inj = a.faults) {
        faults_ = inj;
        inj->add_instance(prefill_.get());
        inj->add_instance(decode_.get());
        inj->add_channel(&xfer_->forward_channel());
        inj->add_channel(&xfer_->reverse_channel());
        xfer_->set_faults(inj);
        // Chaos armed: checkpoint proactively so crash victims have a
        // prefill-side KV copy to resume from (the backup-aware half
        // of backup-aware re-dispatch).
        backup_->fault_tolerance_mode();
    }
}

void
Pod::on_arrival(Request *r)
{
    DispatchDecision d = scheduler_->coordinator().decide_dispatch(
        *r, *prefill_, *decode_);
    // A down instance starts nothing until repaired: route around it
    // while the peer is up — phase-disaggregation's both-roles-capable
    // instances make this a free availability win.
    if (d == DispatchDecision::DecodeInstance && decode_->is_down() &&
        !prefill_->is_down()) {
        d = DispatchDecision::PrefillInstance;
    } else if (d == DispatchDecision::PrefillInstance &&
               prefill_->is_down() && !decode_->is_down()) {
        d = DispatchDecision::DecodeInstance;
    }
    if (d == DispatchDecision::DecodeInstance)
        decode_->enqueue_assist_prefill(r);
    else
        prefill_->enqueue_prefill(r);
}

void
Pod::finish_prefill_only(engine::Instance &inst, Request *r)
{
    // Single-output-token request: the prefill's first token is also the
    // EOS; no decode phase exists.
    r->finish_time = sim_.now();
    obs::transition(probe_, *r, RequestState::Finished);
    inst.release_kv(r);
    on_finished(r);
}

void
Pod::on_prefill_complete_at_prefill(Request *r)
{
    if (r->output_tokens <= 1) {
        finish_prefill_only(*prefill_, r);
        return;
    }
    // A cross-pod balancer may claim the KV hand-off (decode offload to
    // a less loaded pod); otherwise the local prefill->decode copy runs.
    if (hooks_.offload_decode && hooks_.offload_decode(*this, r))
        return;
    begin_local_decode_transfer(r);
}

void
Pod::begin_local_decode_transfer(Request *r)
{
    // WindServe overlaps the KV copy with the prefill pass; only the
    // tail is left on the critical path here (transfer config).
    transferring_[r->id] = r;
    xfer_->transfer_prefill_kv(r, [this, r, inc = r->incarnation] {
        if (r->incarnation != inc)
            return; // the prefill crashed mid-copy; r was re-dispatched
        transferring_.erase(r->id);
        prefill_->release_kv(r);
        decode_->enqueue_decode(r, /*kv_resident=*/false);
        notify_decode_ready(r);
    });
}

void
Pod::hold_for_offload(Request *r)
{
    transferring_[r->id] = r;
}

workload::Request *
Pod::take_held_offload(workload::RequestId id)
{
    auto it = transferring_.find(id);
    if (it == transferring_.end())
        return nullptr;
    Request *r = it->second;
    transferring_.erase(it);
    return r;
}

void
Pod::notify_decode_ready(Request *r)
{
    if (faults_)
        faults_->note_decode_ready(r);
}

void
Pod::on_prefill_complete_at_decode(Request *r)
{
    if (r->output_tokens <= 1) {
        finish_prefill_only(*decode_, r);
        return;
    }
    // Assist prefill: KV is already resident in the decode instance —
    // no transfer at all (a structural benefit of Dynamic Prefill
    // Dispatch).
    r->transfer_done_time = sim_.now();
    decode_->enqueue_decode(r, /*kv_resident=*/true);
    notify_decode_ready(r);
}

void
Pod::admit_remote_decode(Request *r)
{
    r->transfer_done_time = sim_.now();
    decode_->enqueue_decode(r, /*kv_resident=*/false);
    notify_decode_ready(r);
}

void
Pod::on_finished(Request *r)
{
    migration_->on_request_finished(r);
    backup_->on_request_done(r);
    notify_decode_ready(r); // single-token recoveries finish without
                            // re-entering a decode queue
    if (hooks_.on_finished)
        hooks_.on_finished(r);
}

void
Pod::redispatch_after_fault(Request *r)
{
    // Backup-aware re-dispatch (the recovery counterpart of §3.3's
    // proactive backups): when a KV prefix backup survives at the
    // prefill instance, resume decoding from it there — only the tokens
    // generated since the backup are recomputed. Otherwise fall back to
    // a full prefill recompute through the normal dispatch path.
    std::size_t backed = backup_registry_.backed_up_tokens(r->id);
    const bool resumable = backed >= r->prompt_tokens && backed > 0 &&
                           !prefill_->is_down() &&
                           prefill_->blocks().holds(r->id);
    if (probe_) {
        probe_->emit(obs::ProbeKind::Redispatch, obs::kNoOwner, r->id,
                     obs::RedispatchOp{resumable, backed, r->prompt_tokens,
                                       !prefill_->is_down()});
    }
    if (resumable) {
        backup_registry_.drop(r->id);
        r->prefilled = r->prompt_tokens;
        engine::set_generated(*r, backed - r->prompt_tokens);
        prefill_->enqueue_decode(r, /*kv_resident=*/true);
        notify_decode_ready(r);
        return;
    }
    r->prefilled = 0;
    engine::set_generated(*r, 0);
    // A fully-down pod cannot recompute: offer the victim to the
    // cluster's cross-pod path before queueing on a dead instance.
    if (hooks_.redispatch_remote && hooks_.redispatch_remote(*this, r))
        return;
    on_arrival(r);
}

void
Pod::on_instance_crashed(engine::Instance &inst,
                         std::vector<Request *> &victims)
{
    if (&inst == prefill_.get()) {
        // Every backup copy lived in the crashed HBM.
        migration_->on_target_crash();
        backup_->on_target_crash();
        backup_registry_.clear();
        for (auto &[id, r] : transferring_)
            victims.push_back(r);
        transferring_.clear();
        if (hooks_.on_prefill_crash)
            hooks_.on_prefill_crash(*this, victims);
    } else {
        backup_->on_source_crash();
        for (Request *r : migration_->cancel_active())
            victims.push_back(r);
    }
}

void
Pod::finalize_stats()
{
    prefill_->finalize_stats();
    decode_->finalize_stats();
}

} // namespace windserve::core
