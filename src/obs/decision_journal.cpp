#include "obs/decision_journal.hpp"

#include <cstdio>
#include <string>

#include "simcore/simulator.hpp"

namespace windserve::obs {

namespace {

std::string
fmt_num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    for (int prec = 1; prec < 17; ++prec) {
        char probe[32];
        std::snprintf(probe, sizeof probe, "%.*g", prec, v);
        double back = 0.0;
        std::sscanf(probe, "%lf", &back);
        if (back == v)
            return probe;
    }
    return buf;
}

std::string
json_escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

void
DecisionJournal::attach(Probe &probe, const sim::Simulator &clock)
{
    clock_ = &clock;
    probe.subscribe(*this, kKinds);
}

void
DecisionJournal::on_record(const Record &r)
{
    auto num = [](auto v) { return static_cast<double>(v); };
    Decision d;
    d.time = clock_->now();
    d.kind = r.kind;
    d.request = r.id;
    switch (r.kind) {
      case ProbeKind::Dispatch: {
        // Algorithm 1: both candidates with the loads that scored them.
        const DispatchOp &op = r.as<DispatchOp>();
        d.chosen = op.to_decode ? "decode" : "prefill";
        d.reason = op.reason;
        d.candidates = {
            {"prefill",
             true,
             {{"predicted_ttft", op.predicted_ttft},
              {"thrd", op.thrd},
              {"queued_tokens", op.queued_tokens},
              {"inflight_remaining", op.inflight_remaining}}},
            {"decode",
             op.slots >= op.prompt_tokens,
             {{"available_slots", num(op.slots)},
              {"prompt_tokens", num(op.prompt_tokens)}}}};
        break;
      }
      case ProbeKind::Reschedule: {
        const RescheduleOp &op = r.as<RescheduleOp>();
        d.chosen = op.started ? "migrate-to-prefill" : "";
        d.reason = op.reason;
        d.candidates = {{"migrate-to-prefill",
                         op.started,
                         {{"decode_occupancy", op.occupancy},
                          {"trigger", op.trigger},
                          {"active_migrations", num(op.active_migrations)},
                          {"migrated_resident", num(op.migrated_resident)},
                          {"victim_ctx", num(op.victim_ctx)}}}};
        break;
      }
      case ProbeKind::Redispatch: {
        const RedispatchOp &op = r.as<RedispatchOp>();
        d.chosen = op.resumable ? "resume-backup" : "recompute";
        d.reason = op.resumable ? "backup_covers_prompt" : "no_usable_backup";
        d.candidates = {
            {"resume-backup",
             op.resumable,
             {{"backed_up_tokens", num(op.backed_up_tokens)},
              {"prompt_tokens", num(op.prompt_tokens)},
              {"prefill_up", op.prefill_up ? 1.0 : 0.0}}},
            {"recompute", true, {{"prompt_tokens", num(op.prompt_tokens)}}}};
        break;
      }
      case ProbeKind::Failover: {
        // A control-plane failover: every replica with its term.
        const ElectionOp &op = r.as<ElectionOp>();
        for (std::size_t j = 0; j < op.replicas->size(); ++j) {
            const ReplicaView &v = (*op.replicas)[j];
            d.candidates.push_back({"replica" + std::to_string(j),
                                    v.alive,
                                    {{"term", num(v.term)}}});
        }
        d.chosen = "replica" + std::to_string(op.replica);
        d.reason = op.initial ? "initial-election" : "leader-failover";
        break;
      }
      default:
        return;
    }
    entries_.push_back(std::move(d));
}

std::size_t
DecisionJournal::count(ProbeKind k) const
{
    std::size_t n = 0;
    for (const Decision &d : entries_)
        if (d.kind == k)
            ++n;
    return n;
}

std::vector<const Decision *>
DecisionJournal::for_request(std::uint64_t request) const
{
    std::vector<const Decision *> out;
    for (const Decision &d : entries_)
        if (d.request == request)
            out.push_back(&d);
    return out;
}

std::string
DecisionJournal::csv() const
{
    std::string out =
        "time,kind,request,chosen,reason,candidate,feasible,scores\n";
    for (const Decision &d : entries_) {
        const std::string prefix = fmt_num(d.time) + "," +
                                   to_cstring(d.kind) + "," +
                                   std::to_string(d.request) + "," +
                                   d.chosen + "," + d.reason + ",";
        if (d.candidates.empty()) {
            out += prefix + ",,\n";
            continue;
        }
        for (const DecisionOption &c : d.candidates) {
            out += prefix + c.target + "," +
                   (c.feasible ? "1" : "0") + ",\"";
            for (std::size_t i = 0; i < c.scores.size(); ++i) {
                if (i > 0)
                    out += ";";
                out += c.scores[i].first + "=" +
                       fmt_num(c.scores[i].second);
            }
            out += "\"\n";
        }
    }
    return out;
}

std::string
DecisionJournal::json() const
{
    std::string out = "{\"decisions\": [";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Decision &d = entries_[i];
        if (i > 0)
            out += ",";
        out += "\n  {\"time\": " + fmt_num(d.time) + ", \"kind\": \"" +
               to_cstring(d.kind) + "\", \"request\": " +
               std::to_string(d.request) + ", \"chosen\": \"" +
               json_escape(d.chosen) + "\", \"reason\": \"" +
               json_escape(d.reason) + "\", \"candidates\": [";
        for (std::size_t j = 0; j < d.candidates.size(); ++j) {
            const DecisionOption &c = d.candidates[j];
            if (j > 0)
                out += ", ";
            out += "{\"target\": \"" + json_escape(c.target) +
                   "\", \"feasible\": " +
                   (c.feasible ? "true" : "false") + ", \"scores\": {";
            for (std::size_t s = 0; s < c.scores.size(); ++s) {
                if (s > 0)
                    out += ", ";
                out += "\"" + json_escape(c.scores[s].first) +
                       "\": " + fmt_num(c.scores[s].second);
            }
            out += "}}";
        }
        out += "]}";
    }
    out += "\n]}\n";
    return out;
}

} // namespace windserve::obs
