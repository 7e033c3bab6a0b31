/**
 * @file
 * One WindServe pod: a prefill/decode instance pair with its own
 * global scheduler, KV transfer path, migration and backup managers.
 *
 * A pod is the unit of sharding in a multi-node cluster: it owns one
 * NVLink island's worth of GPUs and runs the paper's full Fig. 4
 * pipeline locally (dispatch, SBD, stall-free rescheduling, proactive
 * backups). ClusterServeSystem owns one pod per island and routes
 * between them through the PodHooks seams below; the paper's single
 * testbed is a one-pod cluster (WindServeSystem).
 *
 * The hooks are the only cross-pod surface:
 *  - on_finished     (required) request retired — the owner decrements
 *                    its outstanding count / balancer load;
 *  - offload_decode  (optional) called when a local prefill completes;
 *                    return true to take ownership of the KV hand-off
 *                    (ship it over the NIC to another pod) instead of
 *                    the local prefill->decode copy;
 *  - redispatch_remote (optional) called when a crash victim cannot be
 *                    re-dispatched locally; return true to re-route it
 *                    to another pod;
 *  - on_prefill_crash (optional) lets the owner sweep requests whose
 *                    cross-pod KV copy out of this pod is in flight.
 *
 * A hook left uninstalled keeps the request pod-local, so the
 * construction order (and hence every RNG fork) never depends on the
 * cluster around the pod.
 */
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "core/global_scheduler.hpp"
#include "engine/instance.hpp"
#include "hw/topology.hpp"
#include "transfer/kv_transfer.hpp"
#include "transfer/migration.hpp"

namespace windserve::engine {
struct Attachments;
}
namespace windserve::fault {
class FaultInjector;
}

namespace windserve::core {

/** Full configuration of one WindServe pod (the paper's Fig. 4 pair). */
struct WindServeConfig {
    model::ModelSpec model = model::ModelSpec::opt_13b();
    hw::TopologyConfig topology;
    model::ParallelismConfig prefill_parallelism{2, 1};
    model::ParallelismConfig decode_parallelism{2, 1};
    model::CostModelParams cost_params;

    CoordinatorConfig coordinator;
    transfer::KvTransferConfig transfer{
        transfer::TransferPolicy::Overlapped, 0.05, 0.25, ""};
    transfer::MigrationConfig migration;
    transfer::BackupManager::Config backup;

    /** SLOs drive the assist budget and (by default) `thrd`. */
    double ttft_slo = 0.25;
    double tpot_slo = 0.10;

    std::size_t block_size = 16;
    std::size_t max_batch_size = 256;
    std::size_t max_prefill_tokens = 4096;
    std::size_t chunk_size = 512;
    /** Chunk size the prefill instance uses while hosting migrated
     *  decodes (large = keep prefill throughput). */
    std::size_t prefill_chunk_size = 2048;
    /** Fraction of decode KV capacity reserved from dispatch. */
    double dispatch_reserve_fraction = 0.06;

    /** Stream-based disaggregation on the decode instance (§3.4). */
    bool enable_sbd = true;

    /** Preempt to host memory on KV exhaustion (park when disabled). */
    bool swap_enabled = true;
    /** Host DRAM budget per instance's swap pool. */
    double host_memory_bytes = 256e9;
    /** Override the derived per-instance KV capacity (tokens); 0 keeps
     *  the cost-model value. For tests and capacity studies. */
    std::size_t kv_capacity_tokens_override = 0;

    double exec_noise_sigma = 0.03;
    std::uint64_t seed = 7;
};

class Pod;

/** Cross-pod seams; see file comment. */
struct PodHooks {
    /** Request retired (finished or failed-forward). Required. */
    std::function<void(workload::Request *)> on_finished;
    /** Offer a freshly prefilled request for cross-pod decode. */
    std::function<bool(Pod &, workload::Request *)> offload_decode;
    /** Offer a crash victim whose pod cannot serve it locally. */
    std::function<bool(Pod &, workload::Request *)> redispatch_remote;
    /** The pod's prefill instance crashed: sweep cross-pod transfers. */
    std::function<void(Pod &, std::vector<workload::Request *> &)>
        on_prefill_crash;
};

/** See file comment. */
class Pod
{
  public:
    /**
     * Build a pod on @p sim. @p name_prefix (e.g. "pod3/") prefixes the
     * instance and channel names so their probe owner rows (and the
     * auditor's ledgers) stay distinct across pods; the empty default
     * keeps the historical names. @p index is the pod's id within its
     * cluster (0 for the single-pod system).
     */
    Pod(sim::Simulator &sim, const WindServeConfig &cfg, PodHooks hooks,
        std::string name_prefix = "", std::size_t index = 0);
    ~Pod();

    // ---- request lifecycle (entry points for the owner) ----

    /** Route a new request through Dynamic Prefill Dispatch. */
    void on_arrival(workload::Request *r);

    /** Backup-aware re-dispatch of a crash victim (may bounce to the
     *  owner via redispatch_remote when the pod is fully down). */
    void redispatch_after_fault(workload::Request *r);

    /** Crash sweep for one of this pod's instances. */
    void on_instance_crashed(engine::Instance &inst,
                             std::vector<workload::Request *> &victims);

    /** Admit a request whose prompt KV just arrived from another pod
     *  (cross-pod decode offload): enqueue on the decode instance and
     *  close any fault-recovery window. */
    void admit_remote_decode(workload::Request *r);

    /**
     * Start the local prefill -> decode KV copy for a freshly prefilled
     * request (the default hand-off when no cross-pod offload claims
     * it). Public so a cluster that held the request for an offload
     * decision (see hold_for_offload) can fall back to the local path
     * after refusing the offload.
     */
    void begin_local_decode_transfer(workload::Request *r);

    /**
     * Park a freshly prefilled request while the owner decides where
     * its decode runs (cross-pod offload control latency). The request
     * joins the transferring_ ledger, so a prefill crash during the
     * decision window sweeps it into the victim set like any other
     * in-flight hand-off.
     */
    void hold_for_offload(workload::Request *r);

    /**
     * Claim a request parked by hold_for_offload(). Returns nullptr
     * when the hold no longer exists (the prefill crashed and the
     * victim was swept/re-dispatched meanwhile) — the offload decision
     * must then be abandoned.
     */
    workload::Request *take_held_offload(workload::RequestId id);

    /** Flush per-instance utilization stats at end of run. */
    void finalize_stats();

    /**
     * Point the pod's components at the non-null attachments of @p a,
     * in ServingSystem::wire()'s order. Telemetry registers the
     * instance, link and per-pod series; @p pod_label ("" or
     * "pod=\"k\"") tags the scheduler/migration/backup ones (channel
     * and instance series are already unique via name_prefix). Faults
     * register instances and channels in the pod's canonical order and
     * arm fault-tolerance mode; the injector's redispatch/crash hooks
     * are the owner's to route.
     */
    void wire(const engine::Attachments &a, const std::string &pod_label);

    // ---- introspection ----

    engine::Instance &prefill_instance() { return *prefill_; }
    engine::Instance &decode_instance() { return *decode_; }
    GlobalScheduler &scheduler() { return *scheduler_; }
    transfer::MigrationManager &migration() { return *migration_; }
    transfer::BackupManager &backup() { return *backup_; }
    transfer::KvTransferManager &transfer() { return *xfer_; }
    /** The pod's KV backup registry (the cluster control plane mirrors
     *  it into the coherent KV directory via BackupRegistry::Listener). */
    kvcache::BackupRegistry &backup_registry() { return backup_registry_; }
    std::size_t index() const { return index_; }
    const std::string &name_prefix() const { return name_prefix_; }

  private:
    void on_prefill_complete_at_prefill(workload::Request *r);
    void on_prefill_complete_at_decode(workload::Request *r);
    void on_finished(workload::Request *r);
    void finish_prefill_only(engine::Instance &inst, workload::Request *r);
    void notify_decode_ready(workload::Request *r);

    sim::Simulator &sim_;
    PodHooks hooks_;
    std::string name_prefix_;
    std::size_t index_;
    bool enable_backup_;
    hw::Topology topo_;
    std::unique_ptr<engine::Instance> prefill_;
    std::unique_ptr<engine::Instance> decode_;
    std::unique_ptr<transfer::KvTransferManager> xfer_;
    kvcache::BackupRegistry backup_registry_;
    std::unique_ptr<transfer::MigrationManager> migration_;
    std::unique_ptr<transfer::BackupManager> backup_;
    std::unique_ptr<GlobalScheduler> scheduler_;
    obs::Probe *probe_ = nullptr;
    fault::FaultInjector *faults_ = nullptr;
    /** Requests whose prefill KV copy is in flight — invisible to both
     *  instances' queues, so a prefill crash must sweep them here.
     *  Ordered map: the crash hook iterates it. */
    std::map<workload::RequestId, workload::Request *> transferring_;
};

} // namespace windserve::core
