#include "obs/probe.hpp"

#include <algorithm>
#include <iterator>

namespace windserve::obs {

namespace {

/** Names in ProbeKind order: the one list to_cstring() reads. */
constexpr const char *kKindNames[] = {
    "kv-alloc",        "kv-grow",       "kv-release",   "swap-out",
    "swap-in",         "swap-drop",     "xfer-submit",  "xfer-append",
    "xfer-complete",   "group-check",   "prefill-pass", "sbd-pass",
    "decode-pass",     "chunk-admit",   "wiped",
    "transition",      "migrated",      "migrate-abort", "backed-up",
    "dispatch",        "reschedule",    "redispatch",   "failover",
    "commit",          "apply",         "instance-down", "instance-up",
    "link-down",       "link-up",       "straggler-begin", "straggler-end",
    "abort",           "recovered",
};
static_assert(std::size(kKindNames) == kNumProbeKinds);

} // namespace

const char *
to_cstring(ProbeKind k)
{
    return kKindNames[static_cast<std::size_t>(k)];
}

OwnerId
Probe::add_owner(const std::string &name, const std::string &process,
                 const std::string &track)
{
    std::string key = name + '\0' + process + '\0' + track;
    auto [it, fresh] = owner_by_key_.emplace(
        std::move(key), static_cast<OwnerId>(owners_.size()));
    if (fresh)
        owners_.push_back(Owner{name, process, track});
    return it->second;
}

void
Probe::subscribe(Subscriber &s, KindMask kinds)
{
    auto same = [&](const auto &sub) { return sub.first == &s; };
    if (std::any_of(subs_.begin(), subs_.end(), same))
        return;
    subs_.emplace_back(&s, kinds);
    mask_ |= kinds;
}

void
Probe::publish(const Record &r) const
{
    const KindMask bit = kind_bit(r.kind);
    for (const auto &[sub, kinds] : subs_)
        if (kinds & bit)
            sub->on_record(r);
}

} // namespace windserve::obs
