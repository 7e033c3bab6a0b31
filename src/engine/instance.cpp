#include "engine/instance.hpp"

#include <algorithm>
#include <cassert>

#include "obs/metric_registry.hpp"
#include "simcore/log.hpp"

namespace windserve::engine {

using workload::RequestState;

const char *
to_string(InstanceRole role)
{
    switch (role) {
      case InstanceRole::Prefill:
        return "prefill";
      case InstanceRole::Decode:
        return "decode";
      case InstanceRole::Colocated:
        return "colocated";
    }
    return "unknown";
}

Instance::Instance(sim::Simulator &sim, InstanceConfig cfg,
                   model::CostModel cost, sim::Rng rng, hw::Link host_link)
    : sim_(sim), cfg_(std::move(cfg)),
      sampler_(cost, std::move(rng), cfg_.exec_noise_sigma),
      blocks_((cfg_.kv_capacity_tokens_override
                   ? cfg_.kv_capacity_tokens_override
                   : static_cast<std::size_t>(cost.kv_capacity_tokens())) /
                  cfg_.block_size,
              cfg_.block_size),
      swap_(cfg_.host_memory_bytes, cost.model().kv_bytes_per_token()),
      host_channel_(sim, host_link, cfg_.name + "/host"),
      compute_util_(sim.now()), bw_util_(sim.now()),
      src_pump_(cfg_.name + "/pump"), src_prefill_(cfg_.name + "/prefill"),
      src_sbd_(cfg_.name + "/sbd"), src_decode_(cfg_.name + "/decode")
{
    std::size_t pp = cost.parallelism().pp;
    slots_.resize(pp);
    slot_busy_.assign(pp, false);
    groups_ = std::vector<DecodeGroup>(pp);
    chunk_head_.assign(pp, nullptr);
    hybrid_assists_.resize(pp);
    group_chunk_.assign(pp, 0);
}

std::size_t
Instance::max_per_group() const
{
    std::size_t pp = groups_.size();
    return std::max<std::size_t>(1, cfg_.max_batch_size / pp);
}

void
Instance::set_probe(obs::Probe *p)
{
    probe_ = p;
    owner_ = p ? p->add_owner(cfg_.name, cfg_.name) : obs::kNoOwner;
    blocks_.set_probe(p, owner_);
    swap_.set_probe(p, owner_);
    host_channel_.set_probe(p, cfg_.name, "host-dma");
}

void
Instance::register_metrics(obs::MetricRegistry &reg)
{
    const std::string inst = "instance=\"" + cfg_.name + "\"";
    reg.gauge("ws_queue_requests", inst + ",queue=\"prefill\"",
              [this] {
                  return static_cast<double>(waiting_prefill_requests());
              },
              "Requests waiting or running per instance queue");
    reg.gauge("ws_queue_requests", inst + ",queue=\"decode_waiting\"",
              [this] {
                  return static_cast<double>(waiting_decode_requests());
              });
    reg.gauge("ws_queue_requests", inst + ",queue=\"decode_running\"",
              [this] {
                  return static_cast<double>(running_decode_requests());
              });
    reg.gauge("ws_queue_tokens", inst + ",queue=\"prefill\"",
              [this] {
                  return static_cast<double>(waiting_prefill_tokens());
              },
              "Tokens pending per instance queue");
    reg.gauge("ws_queue_tokens", inst + ",queue=\"assist\"",
              [this] {
                  return static_cast<double>(assist_tokens_pending());
              });
    reg.gauge("ws_gpu_busy", inst + ",resource=\"compute\"",
              [this] { return compute_util_.level(); },
              "Instantaneous busy fraction per GPU resource");
    reg.gauge("ws_gpu_busy", inst + ",resource=\"membw\"",
              [this] { return bw_util_.level(); });
    reg.gauge("ws_kv_block_util", inst,
              [this] { return blocks_.occupancy(); },
              "KV block-manager occupancy fraction");
    reg.gauge("ws_swap_pool_bytes", inst,
              [this] { return swap_.used_bytes(); },
              "Host swap-pool bytes in use");
    reg.gauge("ws_instance_up", inst,
              [this] { return down_ ? 0.0 : 1.0; },
              "1 while the instance is up, 0 while crashed");
    reg.counter("ws_decode_iterations_total", inst,
                [this] { return static_cast<double>(decode_iters_); },
                "Decode iterations executed");
    reg.counter("ws_prefill_passes_total", inst,
                [this] { return static_cast<double>(prefill_passes_); },
                "Pure prefill (and SBD stream) passes executed");
    reg.counter("ws_swap_out_events_total", inst,
                [this] {
                    return static_cast<double>(swap_.swap_out_events());
                },
                "Lifetime swap-out preemptions");
    decode_batch_hist_ =
        reg.histogram("ws_decode_batch_size", inst,
                      obs::Histogram::Options{1.0, 2.0, 10},
                      "Decode batch size at pass start");
    prefill_tokens_hist_ =
        reg.histogram("ws_prefill_pass_tokens", inst,
                      obs::Histogram::Options{64.0, 2.0, 10},
                      "Prompt tokens per prefill pass");
}

// ---------------------------------------------------------------------
// entry points
// ---------------------------------------------------------------------

void
Instance::schedule_pump()
{
    // Defer to a zero-delay event so requests enqueued at the same
    // simulated instant (e.g. a burst arrival) coalesce into one batch
    // instead of the first one racing ahead alone.
    if (pump_scheduled_)
        return;
    pump_scheduled_ = true;
    sim::SourceScope src(sim_, src_pump_);
    sim_.schedule(0.0, [this] {
        pump_scheduled_ = false;
        pump();
    });
}

void
Instance::enqueue_prefill(Request *r)
{
    obs::transition(probe_, *r, RequestState::WaitingPrefill);
    if (r->prefill_enqueue_time == workload::kNoTime)
        r->prefill_enqueue_time = sim_.now();
    prefill_q_.push_back(r);
    schedule_pump();
}

void
Instance::enqueue_decode(Request *r, bool kv_resident)
{
    obs::transition(probe_, *r, RequestState::WaitingDecode);
    if (r->decode_enqueue_time == workload::kNoTime)
        r->decode_enqueue_time = sim_.now();
    if (!kv_resident) {
        // KV arrives with the request (post-transfer); the block manager
        // allocation happens at admission.
        assert(!blocks_.holds(r->id));
    }
    decode_q_.push_back(r);
    schedule_pump();
}

void
Instance::enqueue_assist_prefill(Request *r)
{
    obs::transition(probe_, *r, RequestState::WaitingPrefill);
    r->prefill_dispatched = true;
    if (r->prefill_enqueue_time == workload::kNoTime)
        r->prefill_enqueue_time = sim_.now();
    assist_q_.push_back(r);
    schedule_pump();
}

// ---------------------------------------------------------------------
// mode helpers
// ---------------------------------------------------------------------

bool
Instance::chunk_mode_active() const
{
    if (!cfg_.chunked_prefill)
        return false;
    if (cfg_.role == InstanceRole::Colocated)
        return true;
    // Prefill instance: chunk only while migrated decodes are present
    // (paper §3.3: "if there are decoding jobs in the prefill instance,
    // the prefill jobs in it would be converted to chunked-prefill").
    return cfg_.role == InstanceRole::Prefill &&
           (running_decode_requests() > 0 || !decode_q_.empty());
}

void
Instance::pump()
{
    if (down_)
        return;
    try_swap_in();
    if (!chunk_mode_active() && cfg_.role != InstanceRole::Colocated)
        try_start_prefill_slots();
    if (cfg_.stream_based_disaggregation)
        try_start_sbd_stream();
    // Admit waiting decodes before kicking groups.
    admit_decodes(decode_q_, groups_, max_per_group(), blocks_);
    for (std::size_t g = 0; g < groups_.size(); ++g)
        try_start_group(g);
    refresh_utilization();
}

// ---------------------------------------------------------------------
// pure prefill pipeline slots
// ---------------------------------------------------------------------

void
Instance::try_start_prefill_slots()
{
    sim::SourceScope src(sim_, src_prefill_);
    for (std::size_t s = 0; s < slots_.size(); ++s) {
        if (slot_busy_[s] || prefill_q_.empty())
            continue;
        PrefillBatchLimits limits{cfg_.max_prefill_tokens,
                                  cfg_.max_prefill_requests};
        PrefillBatch batch = form_prefill_batch(prefill_q_, limits, blocks_);
        if (batch.empty())
            return; // KV pressure: wait for blocks
        for (Request *r : batch.requests) {
            if (r->prefill_start_time == workload::kNoTime)
                r->prefill_start_time = sim_.now();
            obs::transition(probe_, *r, RequestState::Prefilling);
        }
        double dur =
            sampler_.prefill(static_cast<double>(batch.total_tokens));
        dur *= slowdown_;
        batch.started = sim_.now();
        batch.expected_end = sim_.now() + dur;
        if (probe_) {
            probe_->emit(obs::ProbeKind::PrefillPass, owner_, 0,
                         obs::Pass{s, "", dur, batch.requests.size(),
                                   batch.total_tokens});
        }
        if (prefill_tokens_hist_)
            prefill_tokens_hist_->observe(
                static_cast<double>(batch.total_tokens));
        slots_[s] = std::move(batch);
        slot_busy_[s] = true;
        sim_.schedule(dur, [this, s, e = epoch_] {
            if (e == epoch_)
                complete_prefill_batch(s);
        });
    }
}

void
Instance::complete_prefill_batch(std::size_t slot)
{
    PrefillBatch batch = std::move(slots_[slot]);
    slot_busy_[slot] = false;
    ++prefill_passes_;
    if (callbacks.on_prefill_observation) {
        callbacks.on_prefill_observation(
            static_cast<double>(batch.total_tokens),
            batch.expected_end - batch.started);
    }
    for (Request *r : batch.requests)
        finish_prefill_of(r);
    if (callbacks.on_step)
        callbacks.on_step();
    pump();
}

// ---------------------------------------------------------------------
// stream-based disaggregation (assist prefills on the decode instance)
// ---------------------------------------------------------------------

void
Instance::try_start_sbd_stream()
{
    if (sbd_active_ || assist_q_.empty())
        return;
    sim::SourceScope src(sim_, src_sbd_);
    std::vector<Request *> batch;
    std::size_t tokens = 0;
    while (!assist_q_.empty() &&
           tokens < cfg_.max_prefill_tokens) {
        Request *r = assist_q_.front();
        if (!blocks_.can_allocate(r->prompt_tokens)) {
            // The coordinator's slot check raced with decode growth:
            // hand the job back to the global scheduler.
            assist_q_.pop_front();
            if (callbacks.on_assist_bounce)
                callbacks.on_assist_bounce(r);
            continue;
        }
    blocks_.allocate(r->id, r->prompt_tokens);
        assist_q_.pop_front();
        if (r->prefill_start_time == workload::kNoTime)
            r->prefill_start_time = sim_.now();
        obs::transition(probe_, *r, RequestState::Prefilling);
        batch.push_back(r);
        tokens += r->prompt_tokens;
    }
    if (batch.empty())
        return;
    double dur = sampler_.sbd_prefill(static_cast<double>(tokens));
    dur *= slowdown_;
    if (probe_) {
        probe_->emit(obs::ProbeKind::SbdPass, owner_, 0,
                     obs::Pass{0, "", dur, batch.size(), tokens});
    }
    if (prefill_tokens_hist_)
        prefill_tokens_hist_->observe(static_cast<double>(tokens));
    sbd_batch_ = std::move(batch);
    sbd_tokens_ = tokens;
    sbd_active_ = true;
    sbd_end_ = sim_.now() + dur;
    sim_.schedule(dur, [this, e = epoch_] {
        if (e == epoch_)
            complete_sbd_stream();
    });
}

void
Instance::complete_sbd_stream()
{
    std::vector<Request *> batch = std::move(sbd_batch_);
    sbd_batch_.clear();
    sbd_active_ = false;
    sbd_tokens_ = 0;
    ++prefill_passes_;
    for (Request *r : batch)
        finish_prefill_of(r);
    if (callbacks.on_step)
        callbacks.on_step();
    pump();
}

// ---------------------------------------------------------------------
// decode groups (continuous batching)
// ---------------------------------------------------------------------

void
Instance::try_start_group(std::size_t g)
{
    DecodeGroup &grp = groups_[g];
    if (grp.busy)
        return;
    sim::SourceScope src(sim_, src_decode_);
    if (probe_ && probe_->wants(obs::ProbeKind::GroupCheck)) {
        grp.audit_view(blocks_, audit_clock_);
        probe_->emit(obs::ProbeKind::GroupCheck, owner_, 0,
                     obs::GroupView{grp.id(), &audit_clock_,
                                    grp.sum_context()});
    }

    std::size_t batch = grp.size();
    std::size_t sum_l = grp.sum_context();

    // Chunked-prefill work available for this pass? A partially-chunked
    // head must be finished via chunking even if chunk mode has since
    // deactivated (e.g. all migrated decodes drained mid-prompt).
    std::size_t chunk_tokens = 0;
    if (chunk_mode_active() || chunk_head_[g] != nullptr) {
        if (chunk_head_[g] == nullptr && !prefill_q_.empty()) {
            Request *cand = prefill_q_.front();
            if (blocks_.can_allocate(cand->prompt_tokens)) {
                blocks_.allocate(cand->id, cand->prompt_tokens);
                prefill_q_.pop_front();
                if (cand->prefill_start_time == workload::kNoTime)
                    cand->prefill_start_time = sim_.now();
                obs::transition(probe_, *cand, RequestState::Prefilling);
                cand->was_chunked = true;
                chunk_head_[g] = cand;
                if (probe_) {
                    probe_->emit(obs::ProbeKind::ChunkAdmit, owner_,
                                 cand->id,
                                 obs::Tokens{cand->prompt_tokens});
                }
            }
        }
        if (chunk_head_[g] != nullptr) {
            chunk_tokens = std::min(
                cfg_.chunk_size,
                chunk_head_[g]->prompt_tokens - chunk_head_[g]->prefilled);
        }
    }

    // Hybrid assist prefills (WindServe-no-split: one stream, one pass).
    std::vector<Request *> hybrid;
    std::size_t hybrid_tokens = 0;
    if (cfg_.role == InstanceRole::Decode &&
        !cfg_.stream_based_disaggregation) {
        while (!assist_q_.empty()) {
            Request *r = assist_q_.front();
            if (!blocks_.can_allocate(r->prompt_tokens)) {
                assist_q_.pop_front();
                if (callbacks.on_assist_bounce)
                    callbacks.on_assist_bounce(r);
                continue;
            }
            blocks_.allocate(r->id, r->prompt_tokens);
            assist_q_.pop_front();
            if (r->prefill_start_time == workload::kNoTime)
                r->prefill_start_time = sim_.now();
            obs::transition(probe_, *r, RequestState::Prefilling);
            hybrid.push_back(r);
            hybrid_tokens += r->prompt_tokens;
        }
    }

    if (batch == 0 && chunk_tokens == 0 && hybrid.empty())
        return;

    double dur;
    const char *mode;
    bool pure_decode = false;
    if (!hybrid.empty()) {
        mode = "hybrid";
        dur = sampler_.hybrid(static_cast<double>(hybrid_tokens),
                              static_cast<double>(batch),
                              static_cast<double>(sum_l));
        hybrid_assists_[g] = std::move(hybrid);
    } else if (chunk_tokens > 0) {
        mode = "chunked";
        dur = sampler_.chunked(
            static_cast<double>(chunk_tokens),
            static_cast<double>(chunk_head_[g]->prefilled),
            static_cast<double>(batch), static_cast<double>(sum_l));
        group_chunk_[g] = chunk_tokens;
    } else if (sbd_active_) {
        mode = "sbd-decode";
        dur = sampler_.sbd_decode(static_cast<double>(batch),
                                  static_cast<double>(sum_l));
    } else {
        mode = "decode";
        dur = sampler_.decode(static_cast<double>(batch),
                              static_cast<double>(sum_l));
        pure_decode = true;
    }
    dur *= slowdown_;
    // Observed AFTER the straggler factor: the latency predictor must
    // learn the duration the pass will actually take.
    if (pure_decode && callbacks.on_decode_observation) {
        callbacks.on_decode_observation(static_cast<double>(batch),
                                        static_cast<double>(sum_l), dur);
    }

    // Only members that joined since the last pass start change state:
    // the others are Decoding already, or Migrating.
    const std::vector<Request *> &members = grp.members();
    for (std::size_t i = grp.begin_pass(blocks_); i < members.size(); ++i) {
        Request *r = members[i];
        if (r->decode_start_time == workload::kNoTime)
            r->decode_start_time = sim_.now();
        // A migrating member keeps its Migrating state: the swap-victim
        // and exhaustion guards key off it, and clobbering it here would
        // let the request be swapped out mid-migration (double-owned).
        if (r->state != RequestState::Migrating)
            obs::transition(probe_, *r, RequestState::Decoding);
    }
    if (probe_) {
        probe_->emit(obs::ProbeKind::DecodePass, owner_, 0,
                     obs::Pass{g, mode, dur, batch, sum_l, chunk_tokens,
                               hybrid_tokens});
    }
    if (decode_batch_hist_ && batch > 0)
        decode_batch_hist_->observe(static_cast<double>(batch));
    grp.busy = true;
    grp.iteration_end = sim_.now() + dur;
    sim_.schedule(dur, [this, g, e = epoch_] {
        if (e == epoch_)
            complete_group(g);
    });
}

void
Instance::complete_group(std::size_t g)
{
    DecodeGroup &grp = groups_[g];
    grp.busy = false;
    if (grp.size() > 0)
        ++decode_iters_;

    // Chunk bookkeeping.
    if (std::size_t c = group_chunk_[g]) {
        group_chunk_[g] = 0;
        Request *r = chunk_head_[g];
        assert(r != nullptr);
        r->prefilled += c;
        if (r->prefilled >= r->prompt_tokens) {
            chunk_head_[g] = nullptr;
            finish_prefill_of(r);
        }
    }

    // Hybrid assist prefills complete with the pass.
    if (!hybrid_assists_[g].empty()) {
        std::vector<Request *> done;
        done.swap(hybrid_assists_[g]);
        for (Request *r : done) {
            r->prefilled = r->prompt_tokens;
            finish_prefill_of(r);
        }
    }

    // The pass's token goes to the members that were in the group when
    // it started (a request admitted mid-pass computed nothing and earns
    // nothing) and are still there: a member swapped out or preempted
    // meanwhile lost this pass's result with its KV. The clock applies
    // the token to all of them; only members that finish or outgrow
    // their KV blocks come back here, in admission order, so a callback
    // sees earlier members with the token and later ones without it.
    grp.begin_settle(sim_.now());
    while (DecodeGroup::Event ev = grp.next_event()) {
        if (ev.finish)
            finish_request(ev.req);
        else
            grow_kv(ev.req, g, ev.context);
    }
    grp.end_settle();

    if (callbacks.on_step)
        callbacks.on_step();
    pump();
}

// ---------------------------------------------------------------------
// lifecycle helpers
// ---------------------------------------------------------------------

void
Instance::finish_prefill_of(Request *r)
{
    r->prefilled = r->prompt_tokens;
    set_generated(*r, std::max<std::size_t>(r->generated, 1));
    if (r->first_token_time == workload::kNoTime)
        r->first_token_time = sim_.now();
    r->note_token(sim_.now());
    if (callbacks.on_prefill_complete)
        callbacks.on_prefill_complete(r);
}

void
Instance::finish_request(Request *r)
{
    r->finish_time = sim_.now();
    obs::transition(probe_, *r, RequestState::Finished);
    for (auto &grp : groups_)
        grp.remove(r);
    blocks_.release(r->id);
    swap_ready_.erase(r->id);
    if (callbacks.on_finished)
        callbacks.on_finished(r);
}

void
Instance::grow_kv(Request *r, std::size_t g, std::size_t ctx)
{
    while (!blocks_.grow(r->id, ctx)) {
        if (r->state == RequestState::Migrating) {
            // A migrating request must never be swapped (its KV is mid-
            // copy; the migration manager owns its fate). Un-earn the
            // token whose KV could not be stored and pause decoding;
            // the in-flight migration resumes it on the target.
            set_generated(*r, ctx - r->prompt_tokens - 1, &groups_[g]);
            pause_decoding(r);
            return;
        }
        if (cfg_.swap_enabled) {
            // Victims come from this group or idle groups; busy groups
            // are mid-pass and cannot lose members.
            Request *victim = select_swap_victim(groups_, g, r);
            if (victim == nullptr)
                victim = r;
            if (swap_out(victim)) {
                if (victim == r)
                    return;
                continue;
            }
            // Host pool full: swapping cannot free blocks, fall through.
        }
        // No swap path (disabled, or the host pool is full). Un-earn
        // the token whose KV could not be stored and preempt: release
        // this request's OWN blocks so the remaining members can make
        // progress — keeping them could deadlock the instance when
        // every holder is parked — and requeue at the front for
        // re-admission once capacity frees up (recompute-style
        // preemption; the recompute pass itself is not modeled by the
        // cost layer). Each retry costs at least one decode pass of
        // simulated time, so the loop cannot spin at one instant.
        set_generated(*r, ctx - r->prompt_tokens - 1, &groups_[g]);
        obs::transition(probe_, *r, RequestState::WaitingDecode);
        for (auto &grp : groups_)
            grp.remove(r);
        blocks_.release(r->id);
        decode_q_.push_front(r);
        return;
    }
    // A crossing grow leaves exactly blocks_for(ctx) blocks.
    groups_[g].set_kv_capacity(r, blocks_.blocks_for(ctx) *
                                      blocks_.block_size());
}

bool
Instance::swap_out(Request *victim)
{
    std::size_t ctx = progress(victim).context_length();
    // Reserve host-pool space FIRST: if the pool is full nothing may
    // change, or a later swap_in would be asked for bytes the pool
    // never accepted.
    if (!swap_.swap_out(victim->id, ctx))
        return false;
    WS_LOG_AT(Debug, cfg_.name, sim_.now())
        << "swap out req " << victim->id << " ctx " << ctx;
    blocks_.release(victim->id);
    ++victim->swap_outs;
    obs::transition(probe_, *victim, RequestState::SwappedOut);
    for (auto &grp : groups_)
        grp.remove(victim);
    decode_q_.push_front(victim);
    kvcache::ReqId id = victim->id;
    host_channel_.submit(swap_.bytes_for(ctx), [this, id, e = epoch_] {
        if (e != epoch_)
            return;
        swap_ready_.insert(id);
        pump();
    });
    return true;
}

void
Instance::try_swap_in()
{
    // FCFS among swapped requests: resume the first one in the queue.
    // It need not be the queue front — block holders and parked
    // requests ahead of it are admit_decodes' business.
    Request *r = nullptr;
    for (Request *cand : decode_q_) {
        if (cand->state == RequestState::SwappedOut) {
            r = cand;
            break;
        }
    }
    if (r == nullptr)
        return;
    if (!swap_ready_.count(r->id) || swapping_in_.count(r->id))
        return; // copy-out still in flight (or already inbound)
    std::size_t ctx = r->context_length();
    if (!blocks_.can_allocate(ctx + cfg_.block_size))
        return; // not enough headroom yet
    blocks_.allocate(r->id, ctx);
    swapping_in_.insert(r->id);
    host_channel_.submit(swap_.bytes_for(ctx), [this, r, e = epoch_] {
        if (e != epoch_)
            return;
        swap_.swap_in(r->id);
        swapping_in_.erase(r->id);
        swap_ready_.erase(r->id);
        obs::transition(probe_, *r, RequestState::WaitingDecode);
        pump();
    });
}

// ---------------------------------------------------------------------
// migration support
// ---------------------------------------------------------------------

void
Instance::pause_decoding(Request *r)
{
    for (auto &grp : groups_)
        grp.remove(r);
}

void
Instance::release_kv(Request *r)
{
    blocks_.release(r->id);
    pump();
}

bool
Instance::is_decoding(const Request *r) const
{
    for (const auto &grp : groups_)
        if (grp.contains(r))
            return true;
    return false;
}

Progress
Instance::progress(const Request *r) const
{
    for (const auto &grp : groups_)
        if (grp.contains(r))
            return grp.progress(grp.index_of(r));
    return progress_of(*r);
}

// ---------------------------------------------------------------------
// fault injection
// ---------------------------------------------------------------------

std::vector<Request *>
Instance::crash()
{
    down_ = true;
    ++epoch_; // in-flight completions are now stale and no-op

    // Victims: everything queued or running HERE. Group members cover
    // the iteration snapshot (a snapshotted request that already left
    // the group is finished or parked in decode_q_). The injector sorts
    // and dedupes, so collection order is irrelevant.
    std::vector<Request *> victims;
    victims.insert(victims.end(), prefill_q_.begin(), prefill_q_.end());
    victims.insert(victims.end(), assist_q_.begin(), assist_q_.end());
    victims.insert(victims.end(), decode_q_.begin(), decode_q_.end());
    for (Request *r : chunk_head_)
        if (r != nullptr)
            victims.push_back(r);
    for (std::size_t s = 0; s < slots_.size(); ++s)
        if (slot_busy_[s])
            victims.insert(victims.end(), slots_[s].requests.begin(),
                           slots_[s].requests.end());
    victims.insert(victims.end(), sbd_batch_.begin(), sbd_batch_.end());
    for (const auto &grp : groups_)
        victims.insert(victims.end(), grp.members().begin(),
                       grp.members().end());
    for (const auto &assists : hybrid_assists_)
        victims.insert(victims.end(), assists.begin(), assists.end());

    // All on-GPU KV is gone — including blocks held for requests that
    // are not scheduled here (a foreign BackupManager's copies).
    for (kvcache::ReqId id : blocks_.holders())
        blocks_.release(id);
    // The host copy of a preempted request is useless once its
    // scheduling state is lost (recovery restarts it); drop it so the
    // pool ledger stays clean.
    for (kvcache::ReqId id : swap_.holders())
        swap_.drop(id);

    prefill_q_.clear();
    assist_q_.clear();
    decode_q_.clear();
    std::fill(chunk_head_.begin(), chunk_head_.end(), nullptr);
    for (std::size_t s = 0; s < slots_.size(); ++s)
        slots_[s] = PrefillBatch{};
    slot_busy_.assign(slot_busy_.size(), false);
    sbd_batch_.clear();
    sbd_active_ = false;
    sbd_tokens_ = 0;
    for (auto &grp : groups_)
        grp.clear();
    for (auto &assists : hybrid_assists_)
        assists.clear();
    std::fill(group_chunk_.begin(), group_chunk_.end(), 0);
    swap_ready_.clear();
    swapping_in_.clear();

    WS_LOG_AT(Info, cfg_.name, sim_.now())
        << "crash: " << victims.size() << " victims evicted";
    refresh_utilization();
    if (probe_) {
        probe_->emit(obs::ProbeKind::Wiped, owner_, 0,
                     obs::Wipe{blocks_.used_blocks(), swap_.used_bytes()});
    }
    return victims;
}

void
Instance::repair()
{
    down_ = false;
    WS_LOG_AT(Info, cfg_.name, sim_.now()) << "repaired";
    pump();
}

// ---------------------------------------------------------------------
// introspection
// ---------------------------------------------------------------------

std::size_t
Instance::waiting_prefill_tokens() const
{
    std::size_t sum = 0;
    for (const Request *r : prefill_q_)
        sum += r->prompt_tokens;
    for (const Request *head : chunk_head_)
        if (head != nullptr)
            sum += head->prompt_tokens - head->prefilled;
    return sum;
}

double
Instance::inflight_prefill_remaining() const
{
    double rem = 0.0;
    for (std::size_t s = 0; s < slots_.size(); ++s)
        if (slot_busy_[s])
            rem += std::max(0.0, slots_[s].expected_end - sim_.now());
    return rem;
}

std::size_t
Instance::assist_tokens_pending() const
{
    std::size_t sum = sbd_active_ ? sbd_tokens_ : 0;
    for (const Request *r : assist_q_)
        sum += r->prompt_tokens;
    return sum;
}

std::size_t
Instance::running_decode_requests() const
{
    std::size_t n = 0;
    for (const auto &grp : groups_)
        n += grp.size();
    return n;
}

std::size_t
Instance::running_decode_context() const
{
    std::size_t n = 0;
    for (const auto &grp : groups_)
        n += grp.sum_context();
    return n;
}

void
Instance::refresh_utilization()
{
    const model::CostModel &cm = sampler_.cost();
    double compute = 0.0, bw = 0.0;
    for (std::size_t s = 0; s < slots_.size(); ++s) {
        if (slot_busy_[s]) {
            compute += cm.prefill_compute_utilization(
                static_cast<double>(slots_[s].total_tokens));
        }
    }
    if (sbd_active_) {
        compute += cm.prefill_compute_utilization(
            static_cast<double>(sbd_tokens_));
    }
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        const DecodeGroup &grp = groups_[g];
        if (!grp.busy)
            continue;
        bw += cm.decode_bandwidth_utilization(
            static_cast<double>(grp.size()),
            static_cast<double>(grp.sum_context()));
        if (group_chunk_[g] != 0) {
            compute += cm.prefill_compute_utilization(
                static_cast<double>(group_chunk_[g]));
        }
    }
    compute_util_.set_level(sim_.now(), std::min(1.0, compute));
    bw_util_.set_level(sim_.now(), std::min(1.0, bw));
}

double
Instance::mean_compute_utilization()
{
    compute_util_.finalize(sim_.now());
    return compute_util_.mean_utilization();
}

double
Instance::mean_bandwidth_utilization()
{
    bw_util_.finalize(sim_.now());
    return bw_util_.mean_utilization();
}

void
Instance::finalize_stats()
{
    for (auto &grp : groups_)
        grp.write_back();
    compute_util_.finalize(sim_.now());
    bw_util_.finalize(sim_.now());
}

} // namespace windserve::engine
