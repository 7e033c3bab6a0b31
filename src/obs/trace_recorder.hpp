/**
 * @file
 * Per-run structured trace recording with Chrome-trace export.
 *
 * A TraceRecorder is owned by one ServingSystem run (no globals), reads
 * its timebase from that system's Simulator, and appends typed events
 * in simulation order — so traces are bit-identical at any `--jobs N`
 * and TSan-clean under the parallel sweep engine. It is a subscriber
 * of the run's obs::Probe and owns the whole trace format: on_record()
 * turns each record into Chrome events — category, process and track
 * (from the probe's owner rows), event name and arg keys — so no
 * component knows the trace vocabulary. With tracing off no trace
 * record is built, keeping untraced runs byte-identical to traced
 * ones.
 *
 * Export targets:
 *  - chrome_json(): Chrome trace-event JSON (load in chrome://tracing
 *    or https://ui.perfetto.dev). Processes are instances/links
 *    (pid=instance), tracks are GPU slots / decode groups / link
 *    directions (tid).
 *  - request_csv(): the per-request lifecycle table
 *    (workload::write_results_csv schema).
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/probe.hpp"

namespace windserve::sim {
class Simulator;
}
namespace windserve::workload {
struct Request;
}

namespace windserve::obs {

// The event model mirrors the Chrome trace-event format: complete spans
// ('X') for work with a known duration, async begin/end pairs ('b'/'e')
// for request lifecycle phases keyed by request id, instants ('i') for
// decisions and faults, and counters ('C') for time series. Timestamps
// are simulated seconds; the JSON exporter converts to microseconds.

/** Top-level taxonomy; becomes the Chrome-trace `cat` field. */
enum class Category {
    Request,   ///< per-request lifecycle phases
    Gpu,       ///< per-instance execution passes (prefill/decode/...)
    Transfer,  ///< link occupancy (KV transfer, migration, swap DMA)
    Scheduler, ///< decision instants (dispatch, stream split, preemption)
    Counter,   ///< numeric time series (queue depth, pool bytes)
    Fault,     ///< injected faults and recovery milestones
};

const char *to_string(Category cat);

/** One key/value annotation attached to an event (`args` in the JSON). */
struct TraceArg {
    std::string key;
    std::string value; ///< pre-rendered JSON token
    bool quoted = false;
};

/** Numeric argument (rendered unquoted). */
TraceArg num_arg(std::string key, double value);
TraceArg num_arg(std::string key, std::uint64_t value);
/** String argument (escaped and quoted on export). */
TraceArg str_arg(std::string key, std::string value);

/** One recorded event. */
struct TraceEvent {
    char phase = 'i'; ///< 'X' span, 'b'/'e' async pair, 'i' instant, 'C' counter
    Category cat = Category::Request;
    std::string name;
    double ts = 0.0;  ///< simulated seconds
    double dur = 0.0; ///< span duration, seconds ('X' only)
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
    std::uint64_t id = 0; ///< async-pair key ('b'/'e' only)
    bool has_id = false;
    std::vector<TraceArg> args;
};

/** See file comment. */
class TraceRecorder : public Subscriber
{
  public:
    /** The kinds the trace renders. */
    static constexpr KindMask kKinds = kinds_of({
        ProbeKind::SwapOut,       ProbeKind::SwapIn,
        ProbeKind::SwapDrop,      ProbeKind::XferComplete,
        ProbeKind::PrefillPass,   ProbeKind::SbdPass,
        ProbeKind::DecodePass,    ProbeKind::ChunkAdmit,
        ProbeKind::Migrated,
        ProbeKind::MigrateAbort,  ProbeKind::BackedUp,
        ProbeKind::Dispatch,      ProbeKind::Reschedule,
        ProbeKind::InstanceDown,  ProbeKind::InstanceUp,
        ProbeKind::LinkDown,      ProbeKind::LinkUp,
        ProbeKind::StragglerBegin, ProbeKind::StragglerEnd,
        ProbeKind::Abort,         ProbeKind::Recovered,
    });

    /** @param sim the owning run's simulation kernel (timebase).
     *  @param probe when given, subscribe to its records; the recorder
     *  then renders them on the processes and tracks of its owner
     *  rows. */
    explicit TraceRecorder(const sim::Simulator &sim,
                           Probe *probe = nullptr);

    /** Render one record as Chrome trace events (see file comment). */
    void on_record(const Record &r) override;

    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    /** Current simulated time (seconds). */
    double now() const;

    // ------------------------------------------------------------------
    // event emission (components report through the probe instead)
    // ------------------------------------------------------------------

    /** Counter sample at an explicit timestamp (series replay). */
    void counter_at(double ts, const std::string &process,
                    const std::string &name, double value);

    /**
     * Derive the lifecycle spans of @p r from its recorded timestamps
     * (arrive -> prefill-queue -> prefill -> KV-transfer -> decode-queue
     * -> decode -> finish). Unfinished requests contribute only the
     * phases that completed plus an "unfinished" instant.
     */
    void record_request_lifecycle(const workload::Request &r);

    // ------------------------------------------------------------------
    // introspection & export
    // ------------------------------------------------------------------

    const std::vector<TraceEvent> &events() const { return events_; }
    std::size_t num_events() const { return events_.size(); }

    /** Events recorded in @p cat. */
    std::size_t count(Category cat) const;

    /** Full Chrome trace-event JSON document. */
    std::string chrome_json() const;
    void write_chrome_json(std::ostream &out) const;

    /** Per-request lifecycle CSV (write_results_csv schema). */
    static std::string
    request_csv(const std::vector<workload::Request> &requests);

  private:
    /** Complete span [start, start+dur] on @p process / @p track. */
    void span(Category cat, const std::string &process,
              const std::string &track, const std::string &name,
              double start, double dur, std::vector<TraceArg> args = {});

    /** Async begin/end pair keyed by @p id (request lifecycle phases). */
    void async_span(Category cat, const std::string &process,
                    const std::string &name, std::uint64_t id, double start,
                    double end, std::vector<TraceArg> args = {});

    /** Instantaneous event at the current simulated time. */
    void instant(Category cat, const std::string &process,
                 const std::string &track, const std::string &name,
                 std::vector<TraceArg> args = {});

    /** Counter sample at the current simulated time. */
    void counter(const std::string &process, const std::string &name,
                 double value);

    std::uint32_t intern_pid(const std::string &process);
    std::uint32_t intern_tid(std::uint32_t pid, const std::string &track);

    const sim::Simulator &sim_;
    const Probe *probe_ = nullptr;
    std::vector<TraceEvent> events_;

    struct Track {
        std::uint32_t pid;
        std::string name;
    };
    std::vector<std::string> processes_; ///< pid-1 -> name
    std::vector<Track> tracks_;          ///< tid-1 -> (pid, name)
    std::unordered_map<std::string, std::uint32_t> pid_by_name_;
    std::unordered_map<std::string, std::uint32_t> tid_by_key_;
};

} // namespace windserve::obs
