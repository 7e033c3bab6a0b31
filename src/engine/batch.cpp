#include "engine/batch.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

namespace windserve::engine {

namespace {

/** Next group id. Atomic because sweeps build systems on several
 *  threads; the values never reach an output, only tag compares. */
std::atomic<std::uint32_t> next_group_id{workload::kNoDecodeGroup + 1};

} // namespace

DecodeGroup::DecodeGroup() : id_(next_group_id.fetch_add(1))
{
    if (id_ == workload::kNoDecodeGroup) // wrapped after 2^32 groups
        id_ = next_group_id.fetch_add(1);
}

void
DecodeGroup::add(Request *r)
{
    if (r->decode_group != workload::kNoDecodeGroup)
        throw std::logic_error("DecodeGroup::add: request already in a "
                               "decode group");
    r->decode_group = id_;
    members_.push_back(r);
    sum_context_ += r->context_length();
}

bool
DecodeGroup::remove(Request *r)
{
    if (!contains(r))
        return false;
    members_.erase(std::find(members_.begin(), members_.end(), r));
    r->decode_group = workload::kNoDecodeGroup;
    sum_context_ -= r->context_length();
    return true;
}

void
DecodeGroup::clear()
{
    for (Request *r : members_)
        r->decode_group = workload::kNoDecodeGroup;
    members_.clear();
    iteration_members.clear();
    sum_context_ = 0;
    busy = false;
}

void
set_generated(Request &r, std::size_t n, DecodeGroup *group)
{
    if (group ? !group->contains(&r)
              : r.decode_group != workload::kNoDecodeGroup)
        throw std::logic_error("set_generated: group does not match the "
                               "request's decode-group tag");
    if (group)
        group->sum_context_ = group->sum_context_ - r.generated + n;
    r.generated = n;
}

std::size_t
total_prompt_tokens(const std::vector<Request *> &requests)
{
    std::size_t sum = 0;
    for (const Request *r : requests)
        sum += r->prompt_tokens;
    return sum;
}

} // namespace windserve::engine
