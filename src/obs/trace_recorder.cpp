#include "obs/trace_recorder.hpp"

#include <cstdio>
#include <ostream>
#include <sstream>

#include "simcore/simulator.hpp"
#include "workload/request.hpp"
#include "workload/trace_io.hpp"

namespace windserve::obs {

const char *
to_string(Category cat)
{
    switch (cat) {
      case Category::Request:
        return "request";
      case Category::Gpu:
        return "gpu";
      case Category::Transfer:
        return "transfer";
      case Category::Scheduler:
        return "scheduler";
      case Category::Counter:
        return "counter";
      case Category::Fault:
        return "fault";
    }
    return "unknown";
}

TraceArg
num_arg(std::string key, double value)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return TraceArg{std::move(key), buf, false};
}

TraceArg
num_arg(std::string key, std::uint64_t value)
{
    return TraceArg{std::move(key), std::to_string(value), false};
}

TraceArg
str_arg(std::string key, std::string value)
{
    return TraceArg{std::move(key), std::move(value), true};
}

TraceRecorder::TraceRecorder(const sim::Simulator &sim, Probe *probe)
    : sim_(sim), probe_(probe)
{
    if (probe)
        probe->subscribe(*this, kKinds);
}

void
TraceRecorder::on_record(const Record &r)
{
    const Owner &o = probe_->owner(r.owner);
    const std::uint64_t req = r.id;
    auto u64 = [](std::size_t v) { return static_cast<std::uint64_t>(v); };
    // Local-scheduler decisions of an instance, and fault milestones on
    // the fault target's track.
    auto sched = [&](const char *name, std::vector<TraceArg> args) {
        instant(Category::Scheduler, o.process, "local-scheduler", name,
                std::move(args));
    };
    auto fault = [&](const char *name, std::vector<TraceArg> args = {}) {
        instant(Category::Fault, o.process, o.track, name, std::move(args));
    };
    switch (r.kind) {
      case ProbeKind::SwapOut:
      case ProbeKind::SwapIn:
      case ProbeKind::SwapDrop: {
        // Host-pool occupancy after every accepted swap event, then the
        // local scheduler's preemption or resumption it carried out.
        const PoolOp &op = r.as<PoolOp>();
        const bool out = r.kind == ProbeKind::SwapOut;
        if (!op.applied)
            break;
        counter(o.process, "swap_pool_bytes",
                out ? op.used + op.bytes : op.used - op.bytes);
        if (r.kind != ProbeKind::SwapDrop) {
            sched(out ? "swap-out" : "swap-in",
                  {num_arg("req", req), num_arg("ctx", u64(op.tokens))});
        }
        break;
      }
      case ProbeKind::XferComplete: {
        const LinkOp &op = r.as<LinkOp>();
        span(Category::Transfer, o.process, o.track, "xfer", op.begun,
             op.end - op.begun,
             {num_arg("bytes", op.bytes), num_arg("id", req)});
        break;
      }
      case ProbeKind::PrefillPass: {
        const Pass &p = r.as<Pass>();
        sched("prefill-batch", {num_arg("requests", u64(p.requests)),
                                num_arg("tokens", u64(p.tokens))});
        span(Category::Gpu, o.process, "slot" + std::to_string(p.lane),
             "prefill", now(), p.dur,
             {num_arg("tokens", u64(p.tokens)),
              num_arg("requests", u64(p.requests))});
        break;
      }
      case ProbeKind::SbdPass: {
        const Pass &p = r.as<Pass>();
        sched("stream-split", {num_arg("requests", u64(p.requests)),
                               num_arg("tokens", u64(p.tokens))});
        span(Category::Gpu, o.process, "sbd-stream", "sbd-prefill", now(),
             p.dur, {num_arg("tokens", u64(p.tokens))});
        break;
      }
      case ProbeKind::DecodePass: {
        const Pass &p = r.as<Pass>();
        span(Category::Gpu, o.process, "group" + std::to_string(p.lane),
             p.mode, now(), p.dur,
             {num_arg("batch", u64(p.requests)),
              num_arg("sum_context", u64(p.tokens)),
              num_arg("chunk_tokens", u64(p.chunk_tokens)),
              num_arg("assist_tokens", u64(p.assist_tokens))});
        break;
      }
      case ProbeKind::ChunkAdmit:
        sched("chunk-admit", {num_arg("req", req),
                              num_arg("tokens", u64(r.as<Tokens>().tokens))});
        break;
      case ProbeKind::Migrated:
      case ProbeKind::MigrateAbort:
      case ProbeKind::BackedUp: {
        const KvCopy &c = r.as<KvCopy>();
        std::vector<TraceArg> args{num_arg("req", req)};
        if (c.has_ctx)
            args.push_back(num_arg("ctx", u64(c.ctx)));
        span(Category::Transfer, o.process, o.track,
             r.kind == ProbeKind::Migrated       ? "migrate"
             : r.kind == ProbeKind::MigrateAbort ? "migrate-abort"
                                                 : "kv-backup",
             c.started, now() - c.started, std::move(args));
        break;
      }
      case ProbeKind::Dispatch: {
        const DispatchOp &d = r.as<DispatchOp>();
        if (d.to_decode) {
            instant(Category::Scheduler, o.process, o.track,
                    "dispatch-to-decode",
                    {num_arg("req", req),
                     num_arg("tokens", u64(d.prompt_tokens)),
                     num_arg("predicted_ttft", d.predicted_ttft)});
        }
        break;
      }
      case ProbeKind::Reschedule: {
        const RescheduleOp &op = r.as<RescheduleOp>();
        if (op.started) {
            instant(Category::Scheduler, o.process, o.track, "reschedule",
                    {num_arg("req", req), num_arg("ctx", u64(op.victim_ctx)),
                     num_arg("decode_occupancy", op.occupancy)});
        }
        break;
      }
      case ProbeKind::InstanceDown: {
        const double repair = r.as<FaultOp>().value;
        span(Category::Fault, o.process, o.track, "down", now(), repair,
             {num_arg("repair_s", repair)});
        break;
      }
      case ProbeKind::InstanceUp:
        fault("repaired");
        break;
      case ProbeKind::LinkDown:
        fault("link_down", {num_arg("rate_factor", r.as<FaultOp>().value)});
        break;
      case ProbeKind::LinkUp:
        fault("link_up");
        break;
      case ProbeKind::StragglerBegin:
        fault("straggler_begin",
              {num_arg("slowdown", r.as<FaultOp>().value)});
        break;
      case ProbeKind::StragglerEnd:
        fault("straggler_end");
        break;
      case ProbeKind::Abort:
        fault("abort", {num_arg("req", req)});
        break;
      case ProbeKind::Recovered:
        fault("recovered", {num_arg("req", req),
                            num_arg("latency_s", r.as<FaultOp>().value)});
        break;
      default:
        break;
    }
}

double
TraceRecorder::now() const
{
    return sim_.now();
}

std::uint32_t
TraceRecorder::intern_pid(const std::string &process)
{
    auto it = pid_by_name_.find(process);
    if (it != pid_by_name_.end())
        return it->second;
    processes_.push_back(process);
    std::uint32_t pid = static_cast<std::uint32_t>(processes_.size());
    pid_by_name_.emplace(process, pid);
    return pid;
}

std::uint32_t
TraceRecorder::intern_tid(std::uint32_t pid, const std::string &track)
{
    std::string key = std::to_string(pid) + "/" + track;
    auto it = tid_by_key_.find(key);
    if (it != tid_by_key_.end())
        return it->second;
    tracks_.push_back(Track{pid, track});
    std::uint32_t tid = static_cast<std::uint32_t>(tracks_.size());
    tid_by_key_.emplace(std::move(key), tid);
    return tid;
}

void
TraceRecorder::span(Category cat, const std::string &process,
                    const std::string &track, const std::string &name,
                    double start, double dur, std::vector<TraceArg> args)
{
    TraceEvent e;
    e.phase = 'X';
    e.cat = cat;
    e.name = name;
    e.ts = start;
    e.dur = dur;
    e.pid = intern_pid(process);
    e.tid = intern_tid(e.pid, track);
    e.args = std::move(args);
    events_.push_back(std::move(e));
}

void
TraceRecorder::async_span(Category cat, const std::string &process,
                          const std::string &name, std::uint64_t id,
                          double start, double end,
                          std::vector<TraceArg> args)
{
    std::uint32_t pid = intern_pid(process);
    TraceEvent b;
    b.phase = 'b';
    b.cat = cat;
    b.name = name;
    b.ts = start;
    b.pid = pid;
    b.tid = 0;
    b.id = id;
    b.has_id = true;
    b.args = std::move(args);
    events_.push_back(std::move(b));

    TraceEvent e;
    e.phase = 'e';
    e.cat = cat;
    e.name = name;
    e.ts = end;
    e.pid = pid;
    e.tid = 0;
    e.id = id;
    e.has_id = true;
    events_.push_back(std::move(e));
}

void
TraceRecorder::instant(Category cat, const std::string &process,
                       const std::string &track, const std::string &name,
                       std::vector<TraceArg> args)
{
    TraceEvent e;
    e.phase = 'i';
    e.cat = cat;
    e.name = name;
    e.ts = now();
    e.pid = intern_pid(process);
    e.tid = intern_tid(e.pid, track);
    e.args = std::move(args);
    events_.push_back(std::move(e));
}

void
TraceRecorder::counter(const std::string &process, const std::string &name,
                       double value)
{
    counter_at(now(), process, name, value);
}

void
TraceRecorder::counter_at(double ts, const std::string &process,
                          const std::string &name, double value)
{
    TraceEvent e;
    e.phase = 'C';
    e.cat = Category::Counter;
    e.name = name;
    e.ts = ts;
    e.pid = intern_pid(process);
    e.tid = 0;
    e.args.push_back(num_arg("value", value));
    events_.push_back(std::move(e));
}

void
TraceRecorder::record_request_lifecycle(const workload::Request &r)
{
    using workload::kNoTime;
    const std::uint64_t id = r.id;
    auto have = [](double t) { return t != kNoTime; };

    if (r.finished() && have(r.finish_time)) {
        async_span(Category::Request, "requests", "request", id,
                   r.arrival_time, r.finish_time,
                   {num_arg("prompt", std::uint64_t(r.prompt_tokens)),
                    num_arg("output", std::uint64_t(r.output_tokens)),
                    num_arg("swap_outs", std::uint64_t(r.swap_outs)),
                    num_arg("migrations", std::uint64_t(r.migrations)),
                    num_arg("dispatched",
                            std::uint64_t(r.prefill_dispatched ? 1 : 0))});
    }
    if (have(r.prefill_enqueue_time) && have(r.prefill_start_time)) {
        async_span(Category::Request, "requests", "queue-prefill", id,
                   r.prefill_enqueue_time, r.prefill_start_time);
    }
    if (have(r.prefill_start_time) && have(r.first_token_time)) {
        async_span(Category::Request, "requests", "prefill", id,
                   r.prefill_start_time, r.first_token_time,
                   {num_arg("tokens", std::uint64_t(r.prompt_tokens))});
    }
    if (have(r.first_token_time) && have(r.transfer_done_time) &&
        r.transfer_done_time > r.first_token_time) {
        async_span(Category::Request, "requests", "kv-transfer", id,
                   r.first_token_time, r.transfer_done_time);
    }
    if (have(r.decode_enqueue_time) && have(r.decode_start_time)) {
        async_span(Category::Request, "requests", "queue-decode", id,
                   r.decode_enqueue_time, r.decode_start_time);
    }
    if (have(r.decode_start_time) && r.finished() && have(r.finish_time)) {
        async_span(Category::Request, "requests", "decode", id,
                   r.decode_start_time, r.finish_time,
                   {num_arg("tokens", std::uint64_t(r.generated))});
    }
    if (!r.finished()) {
        TraceEvent e;
        e.phase = 'i';
        e.cat = Category::Request;
        e.name = "unfinished";
        e.ts = have(r.last_token_time) ? r.last_token_time : r.arrival_time;
        e.pid = intern_pid("requests");
        e.tid = intern_tid(e.pid, "unfinished");
        e.args.push_back(num_arg("req", id));
        e.args.push_back(str_arg("state", to_string(r.state)));
        events_.push_back(std::move(e));
    }
}

std::size_t
TraceRecorder::count(Category cat) const
{
    std::size_t n = 0;
    for (const auto &e : events_)
        if (e.cat == cat)
            ++n;
    return n;
}

namespace {

/** Seconds -> microseconds with fixed precision (determinism matters:
 *  the same run must serialise to the same bytes at any --jobs). */
void
emit_us(std::ostream &out, double seconds)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
    out << buf;
}

void
emit_escaped(std::ostream &out, const std::string &s)
{
    out << '"';
    for (char c : s) {
        switch (c) {
          case '"':
            out << "\\\"";
            break;
          case '\\':
            out << "\\\\";
            break;
          case '\n':
            out << "\\n";
            break;
          case '\t':
            out << "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out << buf;
            } else {
                out << c;
            }
        }
    }
    out << '"';
}

void
emit_args(std::ostream &out, const std::vector<TraceArg> &args)
{
    out << "{";
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (i)
            out << ",";
        emit_escaped(out, args[i].key);
        out << ":";
        if (args[i].quoted)
            emit_escaped(out, args[i].value);
        else
            out << args[i].value;
    }
    out << "}";
}

} // namespace

void
TraceRecorder::write_chrome_json(std::ostream &out) const
{
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto sep = [&] {
        if (!first)
            out << ",";
        first = false;
        out << "\n";
    };

    // Metadata: name every process and track so Perfetto shows
    // instance/GPU labels instead of bare pids.
    for (std::size_t p = 0; p < processes_.size(); ++p) {
        sep();
        out << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << (p + 1)
            << ",\"tid\":0,\"args\":{\"name\":";
        emit_escaped(out, processes_[p]);
        out << "}}";
    }
    for (std::size_t t = 0; t < tracks_.size(); ++t) {
        sep();
        out << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":"
            << tracks_[t].pid << ",\"tid\":" << (t + 1)
            << ",\"args\":{\"name\":";
        emit_escaped(out, tracks_[t].name);
        out << "}}";
    }

    for (const auto &e : events_) {
        sep();
        out << "{\"ph\":\"" << e.phase << "\",\"cat\":\""
            << obs::to_string(e.cat) << "\",\"name\":";
        emit_escaped(out, e.name);
        out << ",\"pid\":" << e.pid << ",\"tid\":" << e.tid << ",\"ts\":";
        emit_us(out, e.ts);
        if (e.phase == 'X') {
            out << ",\"dur\":";
            emit_us(out, e.dur);
        }
        if (e.has_id)
            out << ",\"id\":" << e.id;
        if (e.phase == 'i')
            out << ",\"s\":\"t\"";
        if (!e.args.empty()) {
            out << ",\"args\":";
            emit_args(out, e.args);
        }
        out << "}";
    }
    out << "\n]}\n";
}

std::string
TraceRecorder::chrome_json() const
{
    std::ostringstream out;
    write_chrome_json(out);
    return out.str();
}

std::string
TraceRecorder::request_csv(const std::vector<workload::Request> &requests)
{
    std::ostringstream out;
    workload::write_results_csv(out, requests);
    return out.str();
}

} // namespace windserve::obs
