/**
 * @file
 * The probe stream (obs::Probe): owner-table and interest-mask unit
 * tests, and a counting subscriber on a chaos multi-pod run showing
 * that each fact is reported exactly once — every kind fires as often
 * as the component counter it mirrors. A new check is a new
 * subscriber; this one touches no component.
 */
#include <gtest/gtest.h>

#include <array>
#include <set>
#include <cstdint>
#include <string>
#include <vector>

#include "windserve/windserve.hpp"

using namespace windserve;
using obs::ProbeKind;

namespace {

/** Counts every record per kind, plus the decisions the components
 *  count themselves (a Dispatch record is also a prefill-side
 *  deliberation; only those sending work to decode are dispatches). */
class Counter : public obs::Subscriber
{
  public:
    void on_record(const obs::Record &r) override
    {
        ++by_kind[static_cast<std::size_t>(r.kind)];
        if (r.kind == ProbeKind::Dispatch &&
            r.as<obs::DispatchOp>().to_decode)
            ++dispatches;
        if (r.kind == ProbeKind::Reschedule &&
            r.as<obs::RescheduleOp>().started)
            ++reschedules;
        if (r.kind == ProbeKind::SwapOut && r.as<obs::PoolOp>().applied)
            ++swap_outs;
    }

    std::uint64_t count(ProbeKind k) const
    {
        return by_kind[static_cast<std::size_t>(k)];
    }

    std::array<std::uint64_t, obs::kNumProbeKinds> by_kind{};
    std::uint64_t dispatches = 0;
    std::uint64_t reschedules = 0;
    std::uint64_t swap_outs = 0;
};

/** A cluster whose probe also feeds a Counter, subscribed when the
 *  probe is handed out: before the first record. */
class CountedCluster : public core::ClusterServeSystem
{
  public:
    using core::ClusterServeSystem::ClusterServeSystem;
    Counter counter;

  protected:
    void wire(const engine::Attachments &a) override
    {
        if (a.probe)
            a.probe->subscribe(counter, obs::kAllKinds);
        core::ClusterServeSystem::wire(a);
    }
};

/** Records of every kind a test subscribed to, in emission order. */
class Log : public obs::Subscriber
{
  public:
    void on_record(const obs::Record &r) override { kinds.push_back(r.kind); }
    std::vector<ProbeKind> kinds;
};

} // namespace

TEST(Probe, KindNamesAreDistinctAndStable)
{
    EXPECT_STREQ(obs::to_cstring(ProbeKind::KvAlloc), "kv-alloc");
    EXPECT_STREQ(obs::to_cstring(ProbeKind::Recovered), "recovered");
    std::set<std::string> names;
    for (std::size_t k = 0; k < obs::kNumProbeKinds; ++k)
        names.insert(obs::to_cstring(static_cast<ProbeKind>(k)));
    EXPECT_EQ(names.size(), obs::kNumProbeKinds);
}

TEST(Probe, IdenticalOwnerRowsShareAnId)
{
    obs::Probe p;
    obs::OwnerId a = p.add_owner("pod0/prefill", "pod0/prefill");
    obs::OwnerId b =
        p.add_owner("pod0/kv/p2d", "interconnect", "pod0/kv-p2d");
    EXPECT_NE(a, b);
    EXPECT_EQ(p.add_owner("pod0/prefill", "pod0/prefill"), a);
    // Same name, another trace location: another row.
    EXPECT_NE(p.add_owner("pod0/prefill", "fault", "pod0/prefill"), a);
    EXPECT_EQ(p.num_owners(), 3u);
    EXPECT_EQ(p.owner(b).track, "pod0/kv-p2d");
}

TEST(Probe, DeliversOnlyWantedKindsInSubscriptionOrder)
{
    obs::Probe p;
    EXPECT_FALSE(p.wants(ProbeKind::KvAlloc));
    Log first, second;
    p.subscribe(first, obs::kinds_of({ProbeKind::KvAlloc}));
    p.subscribe(second, obs::kinds_of({ProbeKind::KvAlloc,
                                       ProbeKind::Transition}));
    p.subscribe(first, obs::kAllKinds); // a second subscribe is a no-op
    EXPECT_EQ(p.num_subscribers(), 2u);
    EXPECT_TRUE(p.wants(ProbeKind::Transition));
    EXPECT_FALSE(p.wants(ProbeKind::Dispatch));

    p.emit(ProbeKind::KvAlloc, 0, 1, obs::KvOp{});
    p.emit(ProbeKind::Dispatch, 0, 1, obs::DispatchOp{}); // nobody wants it
    workload::Request r;
    obs::transition(&p, r, workload::RequestState::WaitingPrefill);
    EXPECT_EQ(r.state, workload::RequestState::WaitingPrefill);
    EXPECT_EQ(first.kinds, std::vector<ProbeKind>{ProbeKind::KvAlloc});
    EXPECT_EQ(second.kinds, (std::vector<ProbeKind>{
                                ProbeKind::KvAlloc, ProbeKind::Transition}));
}

TEST(Probe, EachFactFiresOnceOnAChaosMultiPodRun)
{
    // 2 nodes x 2 pods, 3 scheduler replicas, instance crashes and
    // control-plane chaos, under the auditor.
    core::ClusterConfig cc;
    cc.num_nodes = 2;
    cc.pods_per_node = 2;
    cc.pod.seed = 20260809;
    cc.pod.kv_capacity_tokens_override = 8192;
    cc.pod.coordinator.thrd = 0.05;
    cc.offload_highwater = 0.3;
    cc.offload_lowwater = 0.2;
    cc.ctrl.replicas = 3;
    CountedCluster sys(cc);

    workload::TraceConfig tc;
    tc.dataset = workload::DatasetConfig::sharegpt();
    tc.arrival.kind = workload::ArrivalKind::Poisson;
    tc.arrival.rate = 60.0;
    tc.num_requests = 300;
    tc.seed = 5;

    engine::RunOptions opts;
    opts.horizon = 600.0;
    opts.audit.emplace();
    fault::FaultConfig fc;
    fc.horizon = 120.0;
    fc.warmup = 2.0;
    fc.seed = 4242;
    fc.crash_mtbf = 10.0;
    fc.mean_repair = 4.0;
    fc.link_mtbf = 20.0;
    fc.mean_outage = 1.0;
    fc.leader_mtbf = 8.0;
    fc.mean_leader_repair = 2.0;
    fc.partition_mtbf = 20.0;
    fc.mean_partition = 1.5;
    opts.faults = fc;
    auto run = sys.run(workload::TraceBuilder(tc).build(), opts);
    ASSERT_TRUE(sys.audit()->ok());
    const Counter &c = sys.counter;

    // Transfer completions: every channel the probe reaches.
    std::uint64_t completed = 0;
    std::uint64_t swap_outs = 0;
    for (std::size_t k = 0; k < sys.num_pods(); ++k) {
        core::Pod &pod = sys.pod(k);
        completed += pod.transfer().forward_channel().completed() +
                     pod.transfer().reverse_channel().completed() +
                     pod.transfer().staged_channel().completed() +
                     pod.prefill_instance().host_channel().completed() +
                     pod.decode_instance().host_channel().completed();
        swap_outs += pod.prefill_instance().swap_out_events() +
                     pod.decode_instance().swap_out_events();
    }
    for (std::size_t i = 0; i < sys.num_nics(); ++i)
        completed += sys.nic(i).completed();
    EXPECT_EQ(c.count(ProbeKind::XferComplete), completed);
    EXPECT_EQ(c.dispatches, sys.total_dispatches());
    EXPECT_EQ(c.reschedules, sys.total_reschedules());
    EXPECT_EQ(c.swap_outs, swap_outs);
    EXPECT_EQ(c.count(ProbeKind::Failover), sys.ctrl()->elections());
    EXPECT_EQ(c.count(ProbeKind::Redispatch),
              run.metrics.fault_redispatches);
    EXPECT_EQ(c.count(ProbeKind::InstanceDown),
              run.metrics.instance_crashes);
    EXPECT_EQ(c.count(ProbeKind::Wiped), run.metrics.instance_crashes);
    EXPECT_EQ(c.count(ProbeKind::Migrated), sys.total_migrations());
    EXPECT_EQ(c.count(ProbeKind::Commit), sys.ctrl()->commits());
    EXPECT_EQ(c.count(ProbeKind::Apply), sys.ctrl()->applies());

    // The run exercised what it claims to count.
    EXPECT_GT(completed, 0u);
    EXPECT_GT(c.dispatches, 0u);
    EXPECT_GT(c.reschedules, 0u);
    EXPECT_GT(swap_outs, 0u);
    EXPECT_GT(c.count(ProbeKind::Failover), 1u);
    EXPECT_GT(run.metrics.fault_redispatches, 0u);
}
