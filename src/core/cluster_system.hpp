/**
 * @file
 * ClusterServeSystem: WindServe sharded across a multi-node cluster.
 *
 * The cluster is `num_nodes` NVLink islands, each hosting
 * `pods_per_node` pods (a pod = one prefill/decode pair with its own
 * Global Scheduler — see core/pod.hpp). A CrossPodBalancer routes each
 * new request to the least-loaded pod; everything after admission
 * (dispatch, SBD, stall-free rescheduling, backups) stays pod-local.
 * Two explicit cross-pod paths exist:
 *
 *  - decode offload: when a pod's decode KV pressure crosses the
 *    high-water mark (or its decode instance is down) at prefill
 *    completion, the prompt KV ships over the source node's NIC — a
 *    processor-sharing hw::SharedChannel, so concurrent cross-node
 *    copies contend — to the least-pressured remote pod;
 *  - crash re-dispatch: a victim whose home pod is fully down is
 *    recomputed at the least-loaded pod with a live instance.
 *
 * One event queue: every pod runs on the same sim::Simulator as the
 * arrivals, the balancer, the NIC fabric and the chaos engine, so
 * cluster code reads each pod's state at its own timestamp.
 * Retirement, recovery-window closes and KV-directory updates are
 * direct calls. The decode-offload decision models an explicit
 * control-plane latency (cluster_lookahead_floor(), the fabric's base
 * latency): the source pod parks the request (Pod::hold_for_offload)
 * and the cluster scans remote pressure exactly one lookahead later.
 *
 * Determinism: pod k runs on seed `base ^ (k * golden)` (pod 0 keeps
 * the base seed), the balancer is RNG-free, and all cross-pod traffic
 * runs on the one (time, insertion-seq) ordered queue — a cluster run
 * stays a pure function of (config, workload, seed), bit-identical at
 * any --jobs. A 1-node/1-pod cluster is the paper's single testbed
 * (WindServeSystem): no offload path, no NIC channels, no pod prefixes
 * on instance, channel or metric names and no cluster-only metric
 * families.
 */
#pragma once

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/pod.hpp"
#include "core/pod_balancer.hpp"
#include "ctrl/control_plane.hpp"
#include "engine/serving_system.hpp"
#include "hw/topology.hpp"
#include "simcore/flat_id_map.hpp"
#include "simcore/lp.hpp"

namespace windserve::core {

/** Shape and policy of a sharded WindServe deployment. */
struct ClusterConfig {
    /** Per-pod template. `pod.topology` describes ONE node (its
     *  num_nodes / inter_node_links are overridden per pod); `pod.seed`
     *  is the cluster base seed. */
    WindServeConfig pod;
    /** NVLink islands in the cluster. */
    std::size_t num_nodes = 2;
    /** Pods carved out of each node. */
    std::size_t pods_per_node = 1;
    /** Per-node-pair NIC overrides for the cluster fabric (validated
     *  against num_nodes). */
    std::vector<hw::InterNodeLink> inter_node_links;

    /** Local decode KV fraction above which prefill completions are
     *  offered to other pods. */
    double offload_highwater = 0.85;
    /** Remote decode KV fraction below which a pod accepts offloads. */
    double offload_lowwater = 0.60;

    /**
     * Replicated control plane (ctrl/control_plane.hpp). With
     * ctrl.replicas <= 1 (the default) no control plane is built at
     * all — no replicas, no channels, no RNG draws, no events — so
     * such clusters are byte-identical to the pre-control-plane code,
     * including events_fired. At >= 2 replicas every externally
     * visible scheduler decision (admission, decode offload, crash
     * re-dispatch) becomes a replicated log entry that takes effect
     * only once a majority commits it. */
    ctrl::ControlPlaneConfig ctrl;
};

/**
 * The cluster's lookahead floor: the smallest cross-pod interaction
 * latency the fabric guarantees, used as the decode offload's
 * control-plane latency.
 * Multi-node clusters: the minimum inter-node base latency (default
 * NIC latency, lowered by per-pair overrides). Single-node multi-pod
 * clusters: the PCIe root-complex hop (2x link latency), matching the
 * egress SharedChannel the pods actually share.
 */
double cluster_lookahead_floor(const hw::Topology &topo);

/** See file comment. */
class ClusterServeSystem : public engine::ServingSystem
{
  public:
    explicit ClusterServeSystem(ClusterConfig cfg);

    std::size_t num_gpus() const override;
    /** The one simulator every pod, NIC and the chaos engine run on. */
    sim::Simulator &simulator() override { return sim_; }

    // introspection
    std::size_t num_pods() const { return pods_.size(); }
    Pod &pod(std::size_t k) { return *pods_.at(k); }
    /** Inter-node NIC links (empty for a single-node cluster). */
    std::size_t num_nics() const { return nics_.size(); }
    const hw::SharedChannel &nic(std::size_t i) const { return *nics_.at(i); }
    /** Always nullptr: pods share the cluster's one queue. Kept only
     *  because perfbench/runner.cpp still reads LP counters through it. */
    const sim::LpScheduler *lp() const { return nullptr; }
    /** Cross-pod control-plane latency: a parked prefill completion is
     *  decided exactly this long after it (0 for single-pod clusters). */
    double lookahead() const { return ctl_latency_; }
    const CrossPodBalancer &balancer() const { return balancer_; }
    const hw::Topology &topology() const { return topo_; }
    const ClusterConfig &config() const { return cfg_; }
    std::uint64_t cross_offloads() const { return cross_offloads_; }
    std::uint64_t cross_redispatches() const { return cross_redispatches_; }
    /** The replicated control plane (nullptr when ctrl.replicas <= 1). */
    ctrl::ControlPlane *ctrl() { return ctrl_.get(); }
    /** Crash re-dispatches that looked up the KV-backup directory. */
    std::uint64_t directory_consults() const { return directory_consults_; }
    /** Consults whose directory entry matched the victim's home pod
     *  (the new leader resumes from checkpointed KV). */
    std::uint64_t directory_hits() const { return directory_hits_; }

    /** Sum of per-pod scheduler dispatches (harness reporting). */
    std::uint64_t total_dispatches() const;
    /** Sum of per-pod scheduler reschedules. */
    std::uint64_t total_reschedules() const;
    /** Sum of per-pod completed migrations. */
    std::uint64_t total_migrations() const;
    /** Sum of per-pod backups taken. */
    std::uint64_t total_backups() const;

  protected:
    void replay(const std::vector<workload::Request> &trace,
                double horizon) override;
    void fill_system_metrics(metrics::RunMetrics &m) override;
    void wire(const engine::Attachments &a) override;
    std::vector<workload::Request> take_requests() override
    {
        return std::move(requests_);
    }

  private:
    /** Arrival entry point: direct admission, or (with a replicated
     *  control plane) an Admit log entry applied at commit time. */
    void on_arrival(workload::Request *r);
    /** Balancer admission: pick a pod, record the home, hand over. */
    void admit_arrival(workload::Request *r);

    /** Pod hook: maybe claim a prefill completion for remote decode.
     *  Multi-pod: parks the request and schedules the decision one
     *  control latency later (decide_offload). */
    bool maybe_offload(Pod &src, workload::Request *r);
    /** The offload decision: scan remote pressure, ship the KV over
     *  the NIC or fall back to the pod-local hand-off. */
    void decide_offload(std::size_t k, workload::Request *r,
                        std::uint32_t inc);
    /** on_finished bookkeeping (balancer release). */
    void retire_finished(workload::Request *r);
    /** Pod hook: re-home a victim whose pod is fully down. */
    bool maybe_redispatch_remote(Pod &src, workload::Request *r);
    /** Pod hook: sweep cross-pod copies out of a crashed prefill. */
    void sweep_cross_transfers(Pod &src,
                               std::vector<workload::Request *> &victims);

    std::size_t node_of_pod(std::size_t k) const
    {
        return k / cfg_.pods_per_node;
    }
    std::size_t home_of(const workload::Request *r) const;
    static double tokens_of(const workload::Request *r);
    /** Pods whose instances are not both down, refreshed into a buffer
     *  that is reused across admissions. */
    const std::vector<bool> &live_pods();

    /** Cluster-level telemetry: NIC links, ws_cluster_* (multi-pod
     *  only) and ws_ctrl_* families. */
    void wire_cluster_telemetry(obs::Telemetry &t);

    ClusterConfig cfg_;
    sim::Simulator sim_; ///< the one queue: pods, arrivals, NICs, faults
    hw::Topology topo_; ///< cluster-wide (NIC links); pods own islands
    std::vector<std::unique_ptr<Pod>> pods_;
    /** cluster_lookahead_floor(topo_); 0 for single-pod clusters. */
    double ctl_latency_ = 0.0;
    /** Egress NIC per node (absent for a single-node cluster). */
    std::vector<std::unique_ptr<hw::SharedChannel>> nics_;
    CrossPodBalancer balancer_;
    std::map<const engine::Instance *, Pod *> pod_of_instance_;
    /** Current owning pod per in-flight request (sized by the
     *  requests in flight, not by the trace). */
    sim::FlatIdMap<std::size_t> home_pod_;
    std::vector<bool> live_; ///< live_pods() buffer
    /** Cross-pod KV copies in flight: request id -> (src, dst) pod. */
    struct CrossXfer {
        workload::Request *r;
        std::size_t src;
        std::size_t dst;
    };
    std::map<workload::RequestId, CrossXfer> cross_transferring_;
    std::vector<workload::Request> requests_;
    std::size_t outstanding_ = 0;
    std::uint64_t cross_offloads_ = 0;
    std::uint64_t cross_redispatches_ = 0;
    /** Replicated control plane on sim_ (ctrl.replicas >= 2
     *  only; nullptr otherwise so single-leader clusters stay
     *  byte-identical to the historical path). */
    std::unique_ptr<ctrl::ControlPlane> ctrl_;
    std::uint64_t directory_consults_ = 0;
    std::uint64_t directory_hits_ = 0;
};

} // namespace windserve::core
