#include "audit/sim_auditor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <unordered_set>

#include "simcore/log.hpp"
#include "simcore/simulator.hpp"

namespace windserve::audit {

using workload::Request;
using workload::RequestId;
using workload::RequestState;

SimAuditor::SimAuditor(const sim::Simulator &sim, obs::Probe &probe,
                       AuditConfig cfg)
    : sim_(sim), probe_(probe), cfg_(std::move(cfg)), last_time_(sim.now())
{
    probe.subscribe(*this, kKinds);
}

void
SimAuditor::on_record(const obs::Record &r)
{
    using obs::ProbeKind;
    switch (r.kind) {
      case ProbeKind::KvAlloc:
      case ProbeKind::KvGrow:
      case ProbeKind::KvRelease:
        on_kv(r);
        break;
      case ProbeKind::SwapOut:
      case ProbeKind::SwapIn:
      case ProbeKind::SwapDrop:
        on_swap(r);
        break;
      case ProbeKind::XferSubmit:
      case ProbeKind::XferAppend:
      case ProbeKind::XferComplete:
        on_transfer(r);
        break;
      case ProbeKind::GroupCheck:
        on_decode_group(r.owner, r.as<obs::GroupView>());
        break;
      case ProbeKind::Wiped:
        on_instance_crash(r.owner, r.as<obs::Wipe>());
        break;
      case ProbeKind::Transition: {
        const obs::StateChange &c = r.as<obs::StateChange>();
        tick();
        if (!edge_allowed(c.req->state, c.to)) {
            fail("lifecycle-transition", c.req->id, "illegal edge ",
                 workload::to_string(c.req->state), " -> ",
                 workload::to_string(c.to));
        }
        break;
      }
      case ProbeKind::Dispatch: {
        const obs::DispatchOp &d = r.as<obs::DispatchOp>();
        if (!d.to_decode)
            break;
        tick();
        if (d.slots < d.prompt_tokens) {
            fail("dispatch-slots", r.id, "dispatched ", d.prompt_tokens,
                 " prompt tokens into ", d.slots, " available slots");
        }
        break;
      }
      case ProbeKind::Reschedule: {
        const obs::RescheduleOp &op = r.as<obs::RescheduleOp>();
        if (!op.started)
            break;
        tick();
        if (op.occupancy + 1e-9 < op.trigger) {
            fail("reschedule-trigger", r.id, "rescheduled at occupancy ",
                 op.occupancy, " below trigger ", op.trigger);
        }
        break;
      }
      case ProbeKind::Failover:
      case ProbeKind::Commit:
      case ProbeKind::Apply:
        on_ctrl(r);
        break;
      default:
        break;
    }
}

void
SimAuditor::tick()
{
    ++events_;
    double now = sim_.now();
    if (now + cfg_.time_tolerance < last_time_) {
        fail("monotonic-time", 0, "event at t=", now, " after t=", last_time_);
    }
    last_time_ = std::max(last_time_, now);
}

void
SimAuditor::violate(std::string invariant, RequestId req, std::string detail)
{
    Violation v{std::move(invariant), std::move(detail), sim_.now(), req};
    ++total_violations_;
    if (violations_.size() < cfg_.max_violations)
        violations_.push_back(v);
    WS_LOG_AT(Error, "audit", sim_.now())
        << v.invariant << ": " << v.detail << " (req " << v.req << ")";
    if (cfg_.fail_fast) {
        std::ostringstream os;
        os << "audit invariant '" << v.invariant << "' violated: "
           << v.detail << " (req " << v.req << ", t=" << v.sim_time
           << "s)";
        if (!cfg_.repro_config.empty())
            os << "\n  repro: " << repro_line();
        throw InvariantViolation(std::move(v), os.str());
    }
}

// ---------------------------------------------------------------------
// KV block ledger
// ---------------------------------------------------------------------

void
SimAuditor::on_kv(const obs::Record &r)
{
    tick();
    const obs::KvOp &op = r.as<obs::KvOp>();
    const std::string &owner = name(r.owner);
    const RequestId id = r.id;
    KvLedger &led = ledger(kv_, r.owner);
    if (led.used != op.used) {
        fail("kv-conservation", id, owner, ": shadow used ", led.used,
             " != manager used ", op.used);
    }
    if (r.kind == obs::ProbeKind::KvAlloc) {
        if (led.blocks.count(id)) {
            fail("kv-double-alloc", id, owner, ": allocate of ", op.tokens,
                 " tokens while already holding ", led.blocks[id], " blocks");
            return;
        }
        if (!op.applied)
            return; // rejected for capacity; nothing changed
        led.blocks[id] = op.blocks;
        led.used += op.blocks;
    } else if (r.kind == obs::ProbeKind::KvGrow) {
        auto it = led.blocks.find(id);
        if (it == led.blocks.end()) {
            fail("kv-grow-unknown", id, owner, ": grow to ", op.tokens,
                 " tokens of an id holding nothing");
            return;
        }
        if (op.blocks < it->second) {
            fail("kv-shrink", id, owner, ": grow shrank ", it->second, " -> ",
                 op.blocks, " blocks");
            return;
        }
        if (!op.applied)
            return;
        led.used += op.blocks - it->second;
        it->second = op.blocks;
    } else {
        auto it = led.blocks.find(id);
        if (it == led.blocks.end() || !op.applied) {
            fail("kv-double-free", id, owner,
                 ": release of an id holding nothing (shadow ",
                 (it == led.blocks.end() ? "agrees" : "disagrees"), ")");
            if (it == led.blocks.end())
                return;
        }
        if (op.applied && it->second != op.blocks) {
            fail("kv-conservation", id, owner, ": manager freed ", op.blocks,
                 " blocks, shadow recorded ", it->second);
        }
        led.used -= it->second;
        led.blocks.erase(it);
        return;
    }
    if (led.used > op.total) {
        fail("kv-overcommit", id, owner, ": ", led.used,
             " blocks allocated of ", op.total);
    }
}

// ---------------------------------------------------------------------
// host swap pool
// ---------------------------------------------------------------------

void
SimAuditor::on_swap(const obs::Record &r)
{
    tick();
    const obs::PoolOp &op = r.as<obs::PoolOp>();
    const std::string &owner = name(r.owner);
    const RequestId id = r.id;
    PoolLedger &led = ledger(pools_, r.owner);
    if (std::abs(led.used - op.used) > 1.0) {
        fail("swap-conservation", id, owner, ": shadow pool ", led.used,
             "B != pool counter ", op.used, "B");
    }
    if (r.kind != obs::ProbeKind::SwapOut) {
        auto it = led.bytes.find(id);
        if (it == led.bytes.end() || !op.applied) {
            fail("swap-in-unknown", id, owner,
                 ": swap-in of an id not resident in the pool");
            if (it == led.bytes.end())
                return;
        }
        led.used -= it->second;
        led.bytes.erase(it);
        return;
    }
    if (op.held || led.bytes.count(id)) {
        fail("swap-double-out", id, owner, ": swap-out of ", op.tokens,
             " tokens while already swapped");
        return;
    }
    if (!op.applied)
        return; // pool full; caller must keep the GPU copy
    led.bytes[id] = op.bytes;
    led.used += op.bytes;
    if (led.used > op.capacity + 1.0) {
        fail("swap-overcommit", id, owner, ": pool holds ", led.used, "B of ",
             op.capacity, "B");
    }
}

// ---------------------------------------------------------------------
// link transfers
// ---------------------------------------------------------------------

void
SimAuditor::on_transfer(const obs::Record &r)
{
    tick();
    const obs::LinkOp &op = r.as<obs::LinkOp>();
    const std::string &chan = name(r.owner);
    const std::uint64_t id = r.id;
    XferLedger &open = ledger(xfers_, r.owner);
    if (r.kind == obs::ProbeKind::XferSubmit) {
        if (open.count(id)) {
            fail("xfer-duplicate-id", 0, chan, ": transfer id ", id,
                 " submitted twice");
            return;
        }
        open[id] = OpenTransfer{op.bytes};
        return;
    }
    auto it = open.find(id);
    if (r.kind == obs::ProbeKind::XferAppend) {
        if (it == open.end() || !op.open) {
            fail("xfer-append-closed", 0, chan, ": append of ", op.bytes,
                 "B to ", (it == open.end() ? "unknown" : "completed"),
                 " transfer id ", id);
            return;
        }
        it->second.bytes += op.bytes;
        return;
    }
    if (it == open.end()) {
        fail("xfer-unknown-complete", 0, chan,
             ": completion of unknown transfer id ", id);
        return;
    }
    // Byte conservation: everything submitted/appended arrives.
    const double bytes = op.bytes;
    double tracked = it->second.bytes;
    double tol = 1.0 + 1e-9 * std::max(tracked, bytes);
    if (std::abs(tracked - bytes) > tol) {
        fail("xfer-byte-conservation", 0, chan, ": transfer id ", id,
             " completed with ", bytes, "B, ", tracked, "B were submitted");
    }
    // Link capacity: the wire cannot beat latency + bytes/bandwidth
    // from the moment the transfer occupied the link. Appended bytes
    // only extend the same slot, so the bound stays valid. Both
    // endpoints of the interval come from the channel's clock.
    double elapsed = op.end - op.begun;
    double min_time = op.latency + bytes / op.bandwidth;
    double ttol = cfg_.time_tolerance + 1e-9 * std::max(elapsed, min_time);
    if (elapsed + ttol < min_time) {
        fail("xfer-capacity", 0, chan, ": transfer id ", id, " moved ", bytes,
             "B in ", elapsed, "s, minimum is ", min_time, "s");
    }
    open.erase(it);
}

// ---------------------------------------------------------------------
// request lifecycle
// ---------------------------------------------------------------------

bool
SimAuditor::allowed(RequestState from, RequestState to)
{
    // Self-transitions are re-queues/re-admissions and legal everywhere
    // except the terminal states (a double-finish is exactly the bug to
    // catch).
    if (from == to) {
        return from != RequestState::Finished &&
               from != RequestState::Aborted;
    }
    switch (from) {
      case RequestState::Created:
        return to == RequestState::WaitingPrefill ||
               to == RequestState::WaitingDecode;
      case RequestState::WaitingPrefill:
        return to == RequestState::Prefilling;
      case RequestState::Prefilling:
        return to == RequestState::Transferring ||
               to == RequestState::WaitingDecode ||
               to == RequestState::Finished;
      case RequestState::Transferring:
        return to == RequestState::WaitingDecode;
      case RequestState::WaitingDecode:
        // Migrating directly out of WaitingDecode is legal: an admitted
        // group member whose KV is resident may be picked as a
        // migration victim between passes, before its first step.
        return to == RequestState::Decoding ||
               to == RequestState::SwappedOut ||
               to == RequestState::Migrating;
      case RequestState::Decoding:
        return to == RequestState::Finished ||
               to == RequestState::SwappedOut ||
               to == RequestState::Migrating ||
               to == RequestState::WaitingDecode;
      case RequestState::Migrating:
        return to == RequestState::WaitingDecode ||
               to == RequestState::Decoding ||
               to == RequestState::Finished;
      case RequestState::SwappedOut:
        return to == RequestState::WaitingDecode;
      case RequestState::Finished:
      case RequestState::Aborted:
        return false;
    }
    return false;
}

bool
SimAuditor::edge_allowed(RequestState from, RequestState to) const
{
    if (allowed(from, to))
        return true;
    if (!faults_enabled_)
        return false;
    // Fault-recovery edges: a crash victim re-enters the global
    // scheduler from whatever live state the crash caught it in —
    // recompute lands in WaitingPrefill, a backup restore lands in
    // WaitingDecode — and any live request may be aborted once the
    // retry cap is exceeded. The terminal states stay terminal.
    if (from == RequestState::Finished || from == RequestState::Aborted)
        return false;
    return to == RequestState::WaitingPrefill ||
           to == RequestState::WaitingDecode ||
           to == RequestState::Aborted;
}

void
SimAuditor::on_instance_crash(obs::OwnerId id, const obs::Wipe &w)
{
    tick();
    const std::string &owner = name(id);
    KvLedger &led = ledger(kv_, id);
    if (w.kv_used != 0 || led.used != 0 || !led.blocks.empty()) {
        fail("crash-kv-leak", 0, owner, ": post-crash residue — manager ",
             w.kv_used, " blocks, shadow ", led.used, " blocks over ",
             led.blocks.size(), " holders");
    }
    led.blocks.clear();
    led.used = 0;
    PoolLedger &pled = ledger(pools_, id);
    if (w.pool_used > 1.0 || pled.used > 1.0 || !pled.bytes.empty()) {
        fail("crash-swap-leak", 0, owner,
             ": post-crash host-pool residue — pool ", w.pool_used,
             "B, shadow ",
             pled.used, "B over ", pled.bytes.size(), " holders");
    }
    pled.bytes.clear();
    pled.used = 0.0;
}

// ---------------------------------------------------------------------
// replicated control plane
// ---------------------------------------------------------------------

void
SimAuditor::on_ctrl(const obs::Record &r)
{
    tick();
    if (r.kind == obs::ProbeKind::Failover) {
        const std::size_t replica = r.as<obs::ElectionOp>().replica;
        const std::uint64_t term = r.as<obs::ElectionOp>().term;
        auto [it, inserted] = ctrl_leaders_.emplace(term, replica);
        if (!inserted && it->second != replica) {
            fail("ctrl-split-brain", 0, "replica ", replica,
                 " elected in term ", term, " already led by replica ",
                 it->second);
        }
        auto [lt, first] = ctrl_last_term_.emplace(replica, term);
        if (!first) {
            if (term <= lt->second) {
                fail("ctrl-term-regression", 0, "replica ", replica,
                     " re-elected in term ", term, " after leading term ",
                     lt->second);
            }
            lt->second = term;
        }
        return;
    }
    const obs::LogOp &e = r.as<obs::LogOp>();
    if (r.kind == obs::ProbeKind::Commit) {
        auto [it, inserted] =
            ctrl_committed_.emplace(e.index, CtrlEntry{e.term, e.seq});
        if (!inserted &&
            (it->second.term != e.term || it->second.seq != e.seq)) {
            fail("ctrl-commit-conflict", 0, "log index ", e.index,
                 " committed as term ", e.term, "/seq ", e.seq,
                 " but was already committed as term ", it->second.term,
                 "/seq ", it->second.seq);
        }
        return;
    }
    auto [it, inserted] = ctrl_applied_.emplace(e.seq, r.id);
    if (!inserted) {
        fail("ctrl-double-apply", r.id, "intent seq ", e.seq,
             " applied twice (requests ", it->second, " and ", r.id, ")");
    }
}

// ---------------------------------------------------------------------
// decode groups
// ---------------------------------------------------------------------

void
SimAuditor::on_decode_group(obs::OwnerId id, const obs::GroupView &v)
{
    const std::string &owner = name(id);
    const std::uint32_t group = v.group;
    std::size_t sum = 0;
    std::unordered_set<const Request *> seen;
    for (const obs::DecodeMemberClock &m : *v.members) {
        tick(); // each member's clock check is one audited event
        const Request *r = m.req;
        if (r->decode_group != group || !seen.insert(r).second) {
            fail("decode-group-membership", r->id, owner,
                 ": member of group ", group, " tagged ", r->decode_group,
                 (r->decode_group == group ? " (listed twice)" : ""));
        }
        // From scratch: one token per settled pass since its start.
        std::size_t generated = m.base;
        if (m.start != 0 && m.through >= m.start)
            generated += m.through - m.start + 1;
        std::size_t ctx = r->prompt_tokens + generated;
        sum += ctx;
        std::ostringstream os;
        if (generated != m.generated) {
            os << "clock serves " << m.generated << " tokens, start pass "
               << m.start << " through " << m.through << " gives "
               << generated;
        } else if (m.start != 0) {
            // The next token lands one pass after the later of its last
            // earned pass and the pass before its start.
            std::uint64_t last = std::max(m.through, m.start - 1);
            std::uint64_t cross =
                last + (ctx >= m.kv_tokens ? 1 : m.kv_tokens - ctx + 1);
            std::uint64_t finish =
                last + (generated + 1 >= r->output_tokens
                            ? 1
                            : r->output_tokens - generated);
            if (cross != m.cross)
                os << "next block crossing cached at pass " << m.cross
                   << ", context " << ctx << " in " << m.kv_tokens
                   << " KV tokens crosses at pass " << cross;
            else if (finish != m.finish)
                os << "finish cached at pass " << m.finish << ", "
                   << generated << " of " << r->output_tokens
                   << " tokens finish at pass " << finish;
            else if (r->state != RequestState::Decoding &&
                     r->state != RequestState::Migrating)
                os << "started member is " << workload::to_string(r->state);
        }
        if (!os.str().empty())
            violate("decode-group-clock", r->id, owner + ": " + os.str());
    }
    if (sum != v.cached_sum) {
        fail("decode-group-sum", 0, owner, ": group ", group,
             " caches sum_context ", v.cached_sum, ", members sum to ", sum);
    }
}

// ---------------------------------------------------------------------
// end-of-run accounting
// ---------------------------------------------------------------------

void
SimAuditor::finish_run(const std::vector<Request> &requests,
                       std::size_t num_finished, std::size_t num_unfinished)
{
    tick();
    std::size_t finished_states = 0;
    // Terminal = Finished or Aborted: neither may leave ledger residue.
    std::unordered_set<RequestId> terminal_ids;
    for (const Request &r : requests) {
        if (r.finished()) {
            ++finished_states;
            terminal_ids.insert(r.id);
        } else if (r.state == RequestState::Aborted) {
            terminal_ids.insert(r.id);
        }
        if ((r.finished() || r.state == RequestState::Aborted) &&
            r.decode_group != workload::kNoDecodeGroup) {
            fail("decode-group-leak", r.id,
                 "terminal request still tagged with decode group ",
                 r.decode_group);
        }
        if (r.generated > r.output_tokens) {
            fail("token-overrun", r.id, "generated ", r.generated, " of ",
                 r.output_tokens, " output tokens");
        }
        if (!r.finished())
            continue;
        if (r.generated != r.output_tokens) {
            fail("finish-incomplete", r.id, "finished with ", r.generated,
                 " of ", r.output_tokens, " output tokens");
        }
        // A crash survivor's stamps mix incarnations: first_token_time
        // is first-ever (client-observed TTFT) while the re-dispatch
        // re-stamped the phases around it, so the canonical ordering
        // genuinely does not hold. Every stamp still postdates arrival.
        if (r.incarnation > 0) {
            const double stamps[] = {
                r.prefill_enqueue_time, r.prefill_start_time,
                r.first_token_time,     r.transfer_done_time,
                r.decode_enqueue_time,  r.decode_start_time,
                r.finish_time,
            };
            for (double s : stamps) {
                if (s != workload::kNoTime &&
                    s + cfg_.time_tolerance < r.arrival_time) {
                    violate("lifecycle-timestamps", r.id,
                            "stamp predates arrival on crash survivor");
                }
            }
            if (r.finish_time == workload::kNoTime) {
                violate("finish-unstamped", r.id,
                        "finished without a finish_time");
            }
            continue;
        }
        // Timestamp chain in canonical lifecycle order; absent stamps
        // (kNoTime) drop out. The present ones must be non-decreasing,
        // and the phase durations then telescope to the e2e latency.
        const double chain[] = {
            r.arrival_time,       r.prefill_enqueue_time,
            r.prefill_start_time, r.first_token_time,
            r.transfer_done_time, r.decode_enqueue_time,
            r.decode_start_time,  r.finish_time,
        };
        static const char *const names[] = {
            "arrival",       "prefill_enqueue", "prefill_start",
            "first_token",   "transfer_done",   "decode_enqueue",
            "decode_start",  "finish",
        };
        double prev = r.arrival_time;
        const char *prev_name = names[0];
        double phase_sum = 0.0;
        for (std::size_t i = 1; i < 8; ++i) {
            if (chain[i] == workload::kNoTime)
                continue;
            if (chain[i] + cfg_.time_tolerance < prev) {
                fail("lifecycle-timestamps", r.id, names[i], "=", chain[i],
                     " before ", prev_name, "=", prev);
            }
            phase_sum += std::max(0.0, chain[i] - prev);
            prev = chain[i];
            prev_name = names[i];
        }
        if (r.finish_time == workload::kNoTime) {
            violate("finish-unstamped", r.id,
                    "finished without a finish_time");
        } else {
            double e2e = r.finish_time - r.arrival_time;
            double tol = cfg_.time_tolerance + 1e-9 * std::abs(e2e);
            if (std::abs(phase_sum - e2e) > tol) {
                fail("phase-telescoping", r.id, "phase durations sum to ",
                     phase_sum, "s, e2e is ", e2e, "s");
            }
        }
    }

    if (finished_states != num_finished ||
        num_finished + num_unfinished != requests.size()) {
        fail("run-accounting", 0, requests.size(), " requests, ",
             finished_states, " in Finished state, reported ", num_finished,
             " finished + ", num_unfinished, " unfinished");
    }

    // No residue of a terminal (finished or aborted) request may remain
    // in any ledger: its KV blocks and host-pool bytes must have been
    // returned. Owners are walked in name order, so a fail-fast run
    // reports the same first leak whatever order the rows were added.
    std::vector<obs::OwnerId> by_name(std::max(kv_.size(), pools_.size()));
    std::iota(by_name.begin(), by_name.end(), obs::OwnerId{0});
    std::stable_sort(by_name.begin(), by_name.end(),
                     [this](obs::OwnerId a, obs::OwnerId b) {
                         return name(a) < name(b);
                     });
    for (obs::OwnerId owner : by_name) {
        if (owner >= kv_.size())
            continue;
        for (const auto &[id, blocks] : kv_[owner].blocks) {
            if (terminal_ids.count(id)) {
                fail("kv-leak", id, name(owner),
                     ": terminal request still holds ", blocks, " KV blocks");
            }
        }
    }
    for (obs::OwnerId owner : by_name) {
        if (owner >= pools_.size())
            continue;
        for (const auto &[id, bytes] : pools_[owner].bytes) {
            if (terminal_ids.count(id)) {
                fail("swap-leak", id, name(owner),
                     ": terminal request still holds ", bytes,
                     "B of host pool");
            }
        }
    }
}

// ---------------------------------------------------------------------
// introspection
// ---------------------------------------------------------------------

std::string
SimAuditor::report() const
{
    std::ostringstream os;
    if (ok()) {
        os << "audit: OK (" << events_ << " events audited)\n";
        return os.str();
    }
    os << "audit: " << total_violations_ << " violation(s) in " << events_
       << " events\n";
    for (const Violation &v : violations_) {
        os << "  [" << v.invariant << "] t=" << v.sim_time << " req="
           << v.req << ": " << v.detail << "\n";
    }
    if (!cfg_.repro_config.empty())
        os << "  repro: " << repro_line() << "\n";
    return os.str();
}

std::string
SimAuditor::repro_line() const
{
    std::ostringstream os;
    os << "--repro-seed=" << cfg_.repro_seed
       << " --repro-config=" << cfg_.repro_config << cfg_.repro_extra;
    return os.str();
}

} // namespace windserve::audit
