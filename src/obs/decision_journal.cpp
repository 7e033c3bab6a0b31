#include "obs/decision_journal.hpp"

#include <cstdio>

namespace windserve::obs {

const char *
to_string(DecisionKind k)
{
    switch (k) {
      case DecisionKind::Dispatch:
        return "dispatch";
      case DecisionKind::Reschedule:
        return "reschedule";
      case DecisionKind::Redispatch:
        return "redispatch";
      case DecisionKind::Failover:
        return "failover";
    }
    return "unknown";
}

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

std::size_t
DecisionJournal::count(DecisionKind k) const
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
                                   to_string(d.kind) + "," +
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
               to_string(d.kind) + "\", \"request\": " +
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
