#include "baselines/vllm_system.hpp"

#include <stdexcept>

#include "fault/fault_injector.hpp"

namespace windserve::baselines {

using workload::Request;
using workload::RequestState;

VllmColocatedSystem::VllmColocatedSystem(VllmConfig cfg)
    : cfg_(std::move(cfg)), topo_(cfg_.topology)
{
    std::size_t gpus_per_engine = cfg_.engine_parallelism.num_gpus();
    if (cfg_.num_engines * gpus_per_engine > topo_.num_gpus())
        throw std::invalid_argument("VllmColocatedSystem: not enough GPUs");

    sim::Rng seed_rng(cfg_.seed);
    model::CostModel cost(cfg_.model, topo_.gpu(0), cfg_.engine_parallelism,
                          cfg_.cost_params);

    for (std::size_t e = 0; e < cfg_.num_engines; ++e) {
        engine::InstanceConfig icfg;
        icfg.name = "vllm/engine" + std::to_string(e);
        icfg.role = engine::InstanceRole::Colocated;
        icfg.block_size = cfg_.block_size;
        icfg.max_batch_size = cfg_.max_batch_size;
        icfg.max_prefill_tokens = cfg_.max_prefill_tokens;
        icfg.chunk_size = cfg_.chunk_size;
        icfg.chunked_prefill = cfg_.chunked_prefill;
        icfg.swap_enabled = cfg_.swap_enabled;
        icfg.host_memory_bytes = cfg_.host_memory_bytes;
        icfg.kv_capacity_tokens_override = cfg_.kv_capacity_tokens_override;
        icfg.exec_noise_sigma = cfg_.exec_noise_sigma;
        hw::GpuId first_gpu = e * gpus_per_engine;
        auto inst = std::make_unique<engine::Instance>(
            sim_, icfg, cost, seed_rng.fork(), topo_.host_link(first_gpu));
        engine::Instance *raw = inst.get();
        inst->callbacks.on_prefill_complete = [this, raw](Request *r) {
            if (r->output_tokens <= 1) {
                r->finish_time = sim_.now();
                obs::transition(probe(), *r, RequestState::Finished);
                raw->release_kv(r);
                if (faults())
                    faults()->note_decode_ready(r);
                return;
            }
            // Co-located: the request decodes where it prefillled.
            raw->enqueue_decode(r, /*kv_resident=*/true);
            if (faults())
                faults()->note_decode_ready(r);
        };
        engines_.push_back(std::move(inst));
    }
}

std::size_t
VllmColocatedSystem::num_gpus() const
{
    return cfg_.num_engines * cfg_.engine_parallelism.num_gpus();
}

void
VllmColocatedSystem::replay(const std::vector<workload::Request> &trace,
                            double horizon)
{
    requests_ = trace;
    std::size_t next_engine = 0;
    {
        sim::SourceScope src(sim_, "arrival");
        for (auto &r : requests_) {
            Request *ptr = &r;
            engine::Instance *eng = engines_[next_engine].get();
            next_engine = (next_engine + 1) % engines_.size();
            sim_.schedule_at(r.arrival_time,
                             [eng, ptr] { eng->enqueue_prefill(ptr); });
        }
    }
    sim_.run_until(horizon);
    for (auto &e : engines_)
        e->finalize_stats();
}

void
VllmColocatedSystem::wire(const engine::Attachments &a)
{
    for (auto &e : engines_) {
        if (a.telemetry)
            e->register_metrics(a.telemetry->registry());
        if (a.probe)
            e->set_probe(a.probe);
        if (a.faults)
            a.faults->add_instance(e.get());
    }
    if (!a.faults)
        return;
    // No cross-engine KV: a victim restarts from scratch on the first
    // live engine, probing round-robin from its home engine.
    a.faults->set_redispatch([this](Request *r) {
        r->prefilled = 0;
        engine::set_generated(*r, 0);
        std::size_t n = engines_.size();
        std::size_t home = static_cast<std::size_t>(r->id) % n;
        for (std::size_t k = 0; k < n; ++k) {
            engine::Instance *eng = engines_[(home + k) % n].get();
            if (!eng->is_down()) {
                eng->enqueue_prefill(r);
                return;
            }
        }
        // Everything is down: queue on the home engine; it resumes the
        // request after its repair.
        engines_[home]->enqueue_prefill(r);
    });
}

void
VllmColocatedSystem::fill_system_metrics(metrics::RunMetrics &m)
{
    double compute = 0.0, bw = 0.0;
    for (auto &e : engines_) {
        compute += e->mean_compute_utilization();
        bw += e->mean_bandwidth_utilization();
    }
    double n = static_cast<double>(engines_.size());
    // Co-located engines do both phases; report the same means in both
    // slots so Fig. 2-style comparisons stay well-defined.
    m.prefill_compute_util = compute / n;
    m.decode_bandwidth_util = bw / n;
    m.decode_compute_util = compute / n;
    m.prefill_bandwidth_util = bw / n;
}

} // namespace windserve::baselines
