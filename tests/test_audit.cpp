/**
 * @file
 * SimAuditor unit tests: every enforced invariant is exercised by a
 * deliberately-injected violation and must be caught as a fail-fast
 * InvariantViolation carrying the replayable repro line. The clean
 * paths (audited end-to-end runs, audit-on-vs-off equivalence) live
 * here too.
 */
#include <gtest/gtest.h>

#include "audit/sim_auditor.hpp"
#include "engine/batch.hpp"
#include "harness/experiment.hpp"
#include "harness/fuzz.hpp"
#include "hw/transfer_engine.hpp"
#include "kvcache/block_manager.hpp"
#include "kvcache/swap_pool.hpp"
#include "obs/probe.hpp"
#include "simcore/simulator.hpp"

namespace au = windserve::audit;
namespace eng = windserve::engine;
namespace hw = windserve::hw;
namespace kv = windserve::kvcache;
namespace obs = windserve::obs;
namespace sim = windserve::sim;
namespace wl = windserve::workload;
namespace hs = windserve::harness;

using wl::RequestState;

namespace {

au::AuditConfig
repro_cfg()
{
    au::AuditConfig cfg;
    cfg.repro_seed = 42;
    cfg.repro_config = "windserve";
    return cfg;
}

/** Run @p f, which must throw, and return the caught violation. */
template <typename F>
au::Violation
expect_violation(const char *invariant, F &&f)
{
    try {
        f();
    } catch (const au::InvariantViolation &e) {
        EXPECT_EQ(e.violation().invariant, invariant);
        // Every failure must be replayable straight from the message.
        EXPECT_NE(std::string(e.what()).find("--repro-seed=42"),
                  std::string::npos)
            << e.what();
        return e.violation();
    }
    ADD_FAILURE() << "expected a '" << invariant << "' violation";
    return {};
}

/** Report to @p p that request @p id was dispatched to the decode
 *  instance: @p prompt tokens into @p slots available slots. */
void
report_dispatch(obs::Probe &p, wl::RequestId id, std::size_t prompt,
                std::size_t slots)
{
    obs::DispatchOp op;
    op.to_decode = true;
    op.prompt_tokens = prompt;
    op.slots = slots;
    p.emit(obs::ProbeKind::Dispatch, obs::kNoOwner, id, op);
}

/** Report to @p p that request @p id's migration started at decode
 *  occupancy @p occupancy against @p trigger. */
void
report_reschedule(obs::Probe &p, wl::RequestId id, double occupancy,
                  double trigger)
{
    obs::RescheduleOp op;
    op.started = true;
    op.occupancy = occupancy;
    op.trigger = trigger;
    p.emit(obs::ProbeKind::Reschedule, obs::kNoOwner, id, op);
}

/** Report group @p g of instance "d0" starting a pass with @p members
 *  and cached context sum @p sum. */
void
report_group(obs::Probe &p, const eng::DecodeGroup &g,
             const std::vector<obs::DecodeMemberClock> &members,
             std::size_t sum)
{
    p.emit(obs::ProbeKind::GroupCheck, p.add_owner("d0", "d0"), 0,
           obs::GroupView{g.id(), &members, sum});
}

} // namespace

// ---------------------------------------------------------------------
// lifecycle state machine
// ---------------------------------------------------------------------

TEST(AuditLifecycle, TransitionTable)
{
    // The canonical path is legal end to end.
    EXPECT_TRUE(au::SimAuditor::allowed(RequestState::Created,
                                        RequestState::WaitingPrefill));
    EXPECT_TRUE(au::SimAuditor::allowed(RequestState::WaitingPrefill,
                                        RequestState::Prefilling));
    EXPECT_TRUE(au::SimAuditor::allowed(RequestState::Prefilling,
                                        RequestState::Transferring));
    EXPECT_TRUE(au::SimAuditor::allowed(RequestState::Transferring,
                                        RequestState::WaitingDecode));
    EXPECT_TRUE(au::SimAuditor::allowed(RequestState::WaitingDecode,
                                        RequestState::Decoding));
    EXPECT_TRUE(au::SimAuditor::allowed(RequestState::Decoding,
                                        RequestState::Finished));
    // Migration and swap edges.
    EXPECT_TRUE(au::SimAuditor::allowed(RequestState::Decoding,
                                        RequestState::Migrating));
    // An admitted member may be picked as a migration victim between
    // passes, before its first step.
    EXPECT_TRUE(au::SimAuditor::allowed(RequestState::WaitingDecode,
                                        RequestState::Migrating));
    EXPECT_TRUE(au::SimAuditor::allowed(RequestState::Migrating,
                                        RequestState::WaitingDecode));
    EXPECT_TRUE(au::SimAuditor::allowed(RequestState::Decoding,
                                        RequestState::SwappedOut));
    EXPECT_TRUE(au::SimAuditor::allowed(RequestState::SwappedOut,
                                        RequestState::WaitingDecode));
    // Re-queues (self transitions) are legal...
    EXPECT_TRUE(au::SimAuditor::allowed(RequestState::WaitingDecode,
                                        RequestState::WaitingDecode));
    // ...except a double finish.
    EXPECT_FALSE(au::SimAuditor::allowed(RequestState::Finished,
                                         RequestState::Finished));
    // Finished is terminal; phases cannot run backwards or be skipped.
    EXPECT_FALSE(au::SimAuditor::allowed(RequestState::Finished,
                                         RequestState::Decoding));
    EXPECT_FALSE(au::SimAuditor::allowed(RequestState::Decoding,
                                         RequestState::Prefilling));
    EXPECT_FALSE(au::SimAuditor::allowed(RequestState::Created,
                                         RequestState::Decoding));
    EXPECT_FALSE(au::SimAuditor::allowed(RequestState::SwappedOut,
                                         RequestState::Decoding));
}

TEST(AuditLifecycle, IllegalTransitionThrowsWithRepro)
{
    sim::Simulator s;
    obs::Probe probe;
    au::SimAuditor aud(s, probe, repro_cfg());
    wl::Request r;
    r.id = 7;
    r.state = RequestState::Finished;
    au::Violation v = expect_violation("lifecycle-transition", [&] {
        obs::transition(&probe, r, RequestState::Decoding);
    });
    EXPECT_EQ(v.req, 7u);
}

TEST(AuditLifecycle, TransitionHelperWorksWithAndWithoutAuditor)
{
    wl::Request r;
    obs::transition(nullptr, r, RequestState::WaitingPrefill);
    EXPECT_EQ(r.state, RequestState::WaitingPrefill);

    sim::Simulator s;
    obs::Probe probe;
    au::SimAuditor aud(s, probe);
    obs::transition(&probe, r, RequestState::Prefilling);
    EXPECT_EQ(r.state, RequestState::Prefilling);
    EXPECT_TRUE(aud.ok());
}

// ---------------------------------------------------------------------
// KV block ledger
// ---------------------------------------------------------------------

TEST(AuditKv, DoubleFreeCaught)
{
    sim::Simulator s;
    obs::Probe probe;
    au::SimAuditor aud(s, probe, repro_cfg());
    kv::BlockManager bm(64);
    bm.set_probe(&probe, probe.add_owner("decode0", "decode0"));
    ASSERT_TRUE(bm.allocate(1, 100));
    bm.release(1);
    EXPECT_TRUE(aud.ok());
    expect_violation("kv-double-free", [&] { bm.release(1); });
}

TEST(AuditKv, DoubleAllocCaught)
{
    sim::Simulator s;
    obs::Probe probe;
    au::SimAuditor aud(s, probe, repro_cfg());
    kv::BlockManager bm(64);
    bm.set_probe(&probe, probe.add_owner("decode0", "decode0"));
    ASSERT_TRUE(bm.allocate(1, 100));
    expect_violation("kv-double-alloc", [&] { bm.allocate(1, 50); });
}

TEST(AuditKv, GrowOfUnknownIdCaught)
{
    sim::Simulator s;
    obs::Probe probe;
    au::SimAuditor aud(s, probe, repro_cfg());
    kv::BlockManager bm(64);
    bm.set_probe(&probe, probe.add_owner("decode0", "decode0"));
    expect_violation("kv-grow-unknown", [&] { bm.grow(9, 32); });
}

TEST(AuditKv, ShadowLedgerCrossChecksManagerCounter)
{
    // Desynchronize shadow and manager by mutating the manager while
    // the auditor is detached; the next audited event must notice.
    sim::Simulator s;
    obs::Probe probe;
    au::SimAuditor aud(s, probe, repro_cfg());
    kv::BlockManager bm(64);
    bm.set_probe(&probe, probe.add_owner("decode0", "decode0"));
    ASSERT_TRUE(bm.allocate(1, 100));
    bm.set_probe(nullptr, obs::kNoOwner);
    ASSERT_TRUE(bm.allocate(2, 100)); // invisible to the shadow ledger
    bm.set_probe(&probe, probe.add_owner("decode0", "decode0"));
    expect_violation("kv-conservation", [&] { bm.allocate(3, 16); });
}

TEST(AuditKv, CapacityRejectionIsNotAViolation)
{
    sim::Simulator s;
    obs::Probe probe;
    au::SimAuditor aud(s, probe, repro_cfg());
    kv::BlockManager bm(4, 16);
    bm.set_probe(&probe, probe.add_owner("decode0", "decode0"));
    ASSERT_TRUE(bm.allocate(1, 64));  // all 4 blocks
    EXPECT_FALSE(bm.allocate(2, 16)); // clean rejection
    EXPECT_FALSE(bm.grow(1, 80));     // clean rejection
    bm.release(1);
    EXPECT_TRUE(aud.ok());
    EXPECT_GE(aud.events_audited(), 4u);
}

// ---------------------------------------------------------------------
// host swap pool
// ---------------------------------------------------------------------

TEST(AuditSwap, DoubleSwapOutCaught)
{
    sim::Simulator s;
    obs::Probe probe;
    au::SimAuditor aud(s, probe, repro_cfg());
    kv::SwapPool pool(1e9, 1e4);
    pool.set_probe(&probe, probe.add_owner("decode0", "decode0"));
    ASSERT_TRUE(pool.swap_out(1, 100));
    expect_violation("swap-double-out", [&] { pool.swap_out(1, 100); });
}

TEST(AuditSwap, SwapInOfNonResidentCaught)
{
    sim::Simulator s;
    obs::Probe probe;
    au::SimAuditor aud(s, probe, repro_cfg());
    kv::SwapPool pool(1e9, 1e4);
    pool.set_probe(&probe, probe.add_owner("decode0", "decode0"));
    expect_violation("swap-in-unknown", [&] { pool.swap_in(5); });
}

TEST(AuditSwap, PoolFullRejectionIsNotAViolation)
{
    sim::Simulator s;
    obs::Probe probe;
    au::SimAuditor aud(s, probe, repro_cfg());
    kv::SwapPool pool(1e6, 1e4); // room for 100 tokens
    pool.set_probe(&probe, probe.add_owner("decode0", "decode0"));
    ASSERT_TRUE(pool.swap_out(1, 100));
    EXPECT_FALSE(pool.swap_out(2, 1)); // full: clean rejection
    pool.swap_in(1);
    EXPECT_TRUE(aud.ok());
}

// ---------------------------------------------------------------------
// link transfers
// ---------------------------------------------------------------------

TEST(AuditTransfer, AppendToCompletedTransferCaught)
{
    sim::Simulator s;
    obs::Probe probe;
    au::SimAuditor aud(s, probe, repro_cfg());
    hw::Channel chan(s, {hw::LinkType::PCIeSwitch, 1e9, 1e-5}, "p2d");
    chan.set_probe(&probe, "interconnect", "p2d");
    bool done = false;
    hw::TransferId id = chan.submit(1e6, [&] { done = true; });
    s.run();
    ASSERT_TRUE(done);
    EXPECT_TRUE(aud.ok());
    expect_violation("xfer-append-closed", [&] { chan.append(id, 100.0); });
}

TEST(AuditTransfer, CompletionRespectsLinkCapacity)
{
    // Clean completions (including one with a mid-flight append) pass
    // the capacity and byte-conservation checks.
    sim::Simulator s;
    obs::Probe probe;
    au::SimAuditor aud(s, probe, repro_cfg());
    hw::Channel chan(s, {hw::LinkType::PCIeSwitch, 1e9, 1e-5}, "p2d");
    chan.set_probe(&probe, "interconnect", "p2d");
    int done = 0;
    hw::TransferId a = chan.submit(5e6, [&] { ++done; });
    chan.submit(2e6, [&] { ++done; });
    s.schedule(1e-4, [&] { chan.append(a, 3e6); });
    s.run();
    EXPECT_EQ(done, 2);
    EXPECT_TRUE(aud.ok());
    EXPECT_GE(aud.events_audited(), 5u); // 2 submits + append + 2 completes
}

// ---------------------------------------------------------------------
// coordinator decisions
// ---------------------------------------------------------------------

TEST(AuditCoordinator, DispatchIntoTooFewSlotsCaught)
{
    sim::Simulator s;
    obs::Probe probe;
    au::SimAuditor aud(s, probe, repro_cfg());
    expect_violation("dispatch-slots",
                     [&] { report_dispatch(probe, 3, 512, 100); });
}

TEST(AuditCoordinator, RescheduleBelowTriggerCaught)
{
    sim::Simulator s;
    obs::Probe probe;
    au::SimAuditor aud(s, probe, repro_cfg());
    report_reschedule(probe, 1, 0.95, 0.9); // legal
    EXPECT_TRUE(aud.ok());
    expect_violation("reschedule-trigger",
                     [&] { report_reschedule(probe, 2, 0.5, 0.9); });
}

// ---------------------------------------------------------------------
// decode groups
// ---------------------------------------------------------------------

TEST(AuditDecodeGroup, ConsistentGroupPasses)
{
    sim::Simulator s;
    obs::Probe probe;
    au::SimAuditor aud(s, probe, repro_cfg());
    eng::DecodeGroup g;
    wl::Request a, b;
    a.id = 1;
    a.prompt_tokens = 100;
    b.id = 2;
    b.prompt_tokens = 50;
    g.add(&a);
    g.add(&b);
    eng::set_generated(a, 3, &g);
    kv::BlockManager bm(64, 16);
    std::vector<obs::DecodeMemberClock> view;
    g.audit_view(bm, view);
    report_group(probe, g, view, g.sum_context());
    EXPECT_TRUE(aud.ok());
    EXPECT_EQ(aud.events_audited(), 2u); // one clock check per member
}

TEST(AuditDecodeGroup, ForeignTagCaught)
{
    sim::Simulator s;
    obs::Probe probe;
    au::SimAuditor aud(s, probe, repro_cfg());
    eng::DecodeGroup g, other;
    wl::Request a;
    a.id = 7;
    a.prompt_tokens = 10;
    other.add(&a); // a runs in `other` but is listed in g below
    std::vector<obs::DecodeMemberClock> members{{&a}};
    auto v = expect_violation("decode-group-membership", [&] {
        report_group(probe, g, members, 10);
    });
    EXPECT_EQ(v.req, 7u);
}

TEST(AuditDecodeGroup, DuplicateMemberCaught)
{
    sim::Simulator s;
    obs::Probe probe;
    au::SimAuditor aud(s, probe, repro_cfg());
    eng::DecodeGroup g;
    wl::Request a;
    a.id = 3;
    a.prompt_tokens = 10;
    g.add(&a);
    std::vector<obs::DecodeMemberClock> members{{&a}, {&a}};
    expect_violation("decode-group-membership", [&] {
        report_group(probe, g, members, 20);
    });
}

TEST(AuditDecodeGroup, StaleContextSumCaught)
{
    sim::Simulator s;
    obs::Probe probe;
    au::SimAuditor aud(s, probe, repro_cfg());
    eng::DecodeGroup g;
    wl::Request a;
    a.id = 4;
    a.prompt_tokens = 10;
    g.add(&a);
    kv::BlockManager bm(64, 16);
    std::vector<obs::DecodeMemberClock> view;
    g.audit_view(bm, view);
    // A cached sum five tokens off the members' recomputed contexts.
    expect_violation("decode-group-sum", [&] {
        report_group(probe, g, view, g.sum_context() + 5);
    });
}

TEST(AuditFinishRun, TaggedTerminalRequestCaught)
{
    sim::Simulator s;
    obs::Probe probe;
    au::SimAuditor aud(s, probe, repro_cfg());
    eng::DecodeGroup g;
    wl::Request r;
    r.id = 9;
    r.output_tokens = 2;
    g.add(&r);
    eng::set_generated(r, 2, &g);
    r.state = RequestState::Finished;
    r.finish_time = 1.0;
    expect_violation("decode-group-leak",
                     [&] { aud.finish_run({r}, 1, 0); });
}

// ---------------------------------------------------------------------
// end-of-run accounting
// ---------------------------------------------------------------------

TEST(AuditFinishRun, TokenOverrunAndIncompleteFinishCaught)
{
    sim::Simulator s;
    au::AuditConfig cfg = repro_cfg();
    cfg.fail_fast = false; // accumulate: several violations at once
    obs::Probe probe;
    au::SimAuditor aud(s, probe, cfg);

    wl::Request over;
    over.id = 1;
    over.output_tokens = 10;
    over.generated = 12; // more tokens than the oracle length
    over.state = RequestState::Decoding;

    wl::Request incomplete;
    incomplete.id = 2;
    incomplete.output_tokens = 10;
    incomplete.generated = 4;
    incomplete.state = RequestState::Finished;
    incomplete.finish_time = 1.0;

    aud.finish_run({over, incomplete}, 1, 1);
    EXPECT_FALSE(aud.ok());
    std::string rep = aud.report();
    EXPECT_NE(rep.find("token-overrun"), std::string::npos) << rep;
    EXPECT_NE(rep.find("finish-incomplete"), std::string::npos) << rep;
    EXPECT_NE(rep.find("--repro-seed=42"), std::string::npos) << rep;
}

TEST(AuditFinishRun, MiscountedRunAccountingCaught)
{
    sim::Simulator s;
    obs::Probe probe;
    au::SimAuditor aud(s, probe, repro_cfg());
    wl::Request r;
    r.id = 1;
    r.state = RequestState::WaitingDecode;
    // 1 request, claimed 1 finished + 1 unfinished.
    expect_violation("run-accounting", [&] { aud.finish_run({r}, 1, 1); });
}

TEST(AuditFinishRun, OrderedTimestampsPass)
{
    sim::Simulator s;
    obs::Probe probe;
    au::SimAuditor aud(s, probe, repro_cfg());
    wl::Request r;
    r.id = 1;
    r.output_tokens = 5;
    r.generated = 5;
    r.state = RequestState::Finished;
    r.arrival_time = 1.0;
    r.prefill_enqueue_time = 1.0;
    r.prefill_start_time = 1.5;
    r.first_token_time = 2.0;
    r.decode_enqueue_time = 2.2;
    r.decode_start_time = 2.5;
    r.finish_time = 4.0;
    aud.finish_run({r}, 1, 0);
    EXPECT_TRUE(aud.ok());
}

TEST(AuditFinishRun, BackwardsTimestampsCaught)
{
    sim::Simulator s;
    obs::Probe probe;
    au::SimAuditor aud(s, probe, repro_cfg());
    wl::Request r;
    r.id = 1;
    r.output_tokens = 5;
    r.generated = 5;
    r.state = RequestState::Finished;
    r.arrival_time = 1.0;
    r.first_token_time = 3.0;
    r.finish_time = 2.0; // finished before its first token
    expect_violation("lifecycle-timestamps",
                     [&] { aud.finish_run({r}, 1, 0); });
}

// ---------------------------------------------------------------------
// accumulation mode + reporting
// ---------------------------------------------------------------------

TEST(AuditReport, NonFailFastAccumulates)
{
    sim::Simulator s;
    au::AuditConfig cfg = repro_cfg();
    cfg.fail_fast = false;
    obs::Probe probe;
    au::SimAuditor aud(s, probe, cfg);
    kv::BlockManager bm(64);
    bm.set_probe(&probe, probe.add_owner("gpu0", "gpu0"));
    bm.release(99); // double free #1
    bm.release(98); // double free #2
    EXPECT_FALSE(aud.ok());
    EXPECT_EQ(aud.total_violations(), 2u);
    ASSERT_EQ(aud.violations().size(), 2u);
    EXPECT_EQ(aud.violations()[0].invariant, "kv-double-free");
    EXPECT_EQ(aud.repro_line(), "--repro-seed=42 --repro-config=windserve");
}

// Only fuzz cases name a repro config. Any other audited run (a bench
// cell, a golden) reports its violation without a repro line, which
// fuzz_runner would replay as a different, fuzz-generated case.
TEST(AuditReport, NoReproLineWithoutReproConfig)
{
    sim::Simulator s;
    au::AuditConfig cfg;
    cfg.repro_seed = 42;
    cfg.fail_fast = false;
    obs::Probe quiet_probe;
    au::SimAuditor quiet(s, quiet_probe, cfg);
    kv::BlockManager bm(64);
    bm.set_probe(&quiet_probe, quiet_probe.add_owner("gpu0", "gpu0"));
    bm.release(99);
    EXPECT_EQ(quiet.report().find("repro"), std::string::npos)
        << quiet.report();

    cfg.fail_fast = true;
    obs::Probe loud_probe;
    au::SimAuditor loud(s, loud_probe, cfg);
    bm.set_probe(&loud_probe, loud_probe.add_owner("gpu0", "gpu0"));
    try {
        bm.release(98);
        ADD_FAILURE() << "expected a kv-double-free violation";
    } catch (const au::InvariantViolation &e) {
        EXPECT_EQ(std::string(e.what()).find("repro"), std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------------------
// audited end-to-end runs
// ---------------------------------------------------------------------

TEST(AuditEndToEnd, CleanRunAuditsManyEventsWithZeroViolations)
{
    for (hs::SystemKind k :
         {hs::SystemKind::WindServe, hs::SystemKind::DistServe,
          hs::SystemKind::Vllm}) {
        hs::ExperimentConfig ec;
        ec.scenario = hs::Scenario::opt13b_sharegpt();
        ec.system = k;
        ec.per_gpu_rate = 1.5;
        ec.num_requests = 120;
        ec.seed = 11;
        ec.audit = true;
        auto r = hs::run_experiment(ec);
        EXPECT_EQ(r.audit_violations, 0u) << hs::to_string(k);
        EXPECT_GT(r.audit_events, 1000u) << hs::to_string(k);
        EXPECT_EQ(r.metrics.num_finished, 120u) << hs::to_string(k);
    }
}

TEST(AuditEndToEnd, AuditDoesNotPerturbResults)
{
    // The auditor must observe, never steer: per-request outcomes with
    // auditing on are identical to the unaudited run.
    for (hs::SystemKind k :
         {hs::SystemKind::WindServe, hs::SystemKind::DistServe,
          hs::SystemKind::Vllm}) {
        hs::ExperimentConfig ec;
        ec.scenario = hs::Scenario::opt13b_sharegpt();
        ec.system = k;
        ec.per_gpu_rate = 2.0;
        ec.num_requests = 100;
        ec.seed = 5;

        auto plain = hs::make_system(ec);
        auto plain_run =
            plain->run(hs::make_trace(ec), ec.scenario.slo, ec.horizon);

        auto audited = hs::make_system(ec);
        windserve::engine::RunOptions audit_opts;
        audit_opts.slo = ec.scenario.slo;
        audit_opts.horizon = ec.horizon;
        audit_opts.audit = au::AuditConfig{};
        auto audited_run = audited->run(hs::make_trace(ec), audit_opts);

        EXPECT_EQ(hs::result_checksum(plain_run.requests),
                  hs::result_checksum(audited_run.requests))
            << hs::to_string(k);
    }
}
