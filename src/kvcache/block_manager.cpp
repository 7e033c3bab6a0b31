#include "kvcache/block_manager.hpp"

#include <algorithm>
#include <stdexcept>

#include "audit/sim_auditor.hpp"

namespace windserve::kvcache {

namespace {

/** log2 of the initial table size. */
constexpr unsigned kInitialLog2 = 4;

} // namespace

BlockManager::BlockManager(std::size_t total_blocks, std::size_t block_size)
    : total_blocks_(total_blocks), block_size_(block_size),
      per_req_(std::size_t{1} << kInitialLog2), shift_(64 - kInitialLog2)
{
    if (block_size_ == 0)
        throw std::invalid_argument("BlockManager: block_size must be > 0");
}

std::size_t
BlockManager::blocks_for(std::size_t tokens) const
{
    return (tokens + block_size_ - 1) / block_size_;
}

bool
BlockManager::can_allocate(std::size_t tokens) const
{
    return blocks_for(tokens) <= free_blocks();
}

bool
BlockManager::allocate(ReqId id, std::size_t tokens)
{
    std::size_t need = blocks_for(tokens);
    bool fresh = find(id) == nullptr;
    bool fits = need <= free_blocks();
    if (audit_) {
        audit_->on_kv_alloc(audit_owner_, id, tokens, need, fresh && fits,
                            used_blocks_, total_blocks_);
    }
    if (!fresh)
        throw std::logic_error("BlockManager::allocate: id already held");
    if (!fits)
        return false;
    used_blocks_ += need;
    total_tokens_ += tokens;
    insert(Alloc{id, tokens, need});
    return true;
}

bool
BlockManager::grow(ReqId id, std::size_t new_tokens)
{
    Alloc *a = find(id);
    bool known = a != nullptr;
    bool growing = known && new_tokens >= a->tokens;
    std::size_t need = blocks_for(new_tokens);
    std::size_t extra = known && need > a->blocks ? need - a->blocks : 0;
    bool fits = extra <= free_blocks();
    if (audit_) {
        audit_->on_kv_grow(audit_owner_, id, new_tokens, need,
                           known && growing && fits, used_blocks_,
                           total_blocks_);
    }
    if (!known)
        throw std::logic_error("BlockManager::grow: unknown id");
    if (!growing)
        throw std::logic_error("BlockManager::grow: shrinking not allowed");
    if (!fits)
        return false;
    used_blocks_ += extra;
    total_tokens_ += new_tokens - a->tokens;
    a->tokens = new_tokens;
    a->blocks = need;
    return true;
}

void
BlockManager::release(ReqId id)
{
    Alloc *a = find(id);
    bool known = a != nullptr;
    if (audit_) {
        audit_->on_kv_release(audit_owner_, id, known ? a->blocks : 0, known,
                              used_blocks_);
    }
    if (!known)
        return;
    used_blocks_ -= a->blocks;
    total_tokens_ -= a->tokens;
    erase(a);
}

std::size_t
BlockManager::tokens_of(ReqId id) const
{
    const Alloc *a = find(id);
    return a ? a->tokens : 0;
}

std::size_t
BlockManager::blocks_of(ReqId id) const
{
    const Alloc *a = find(id);
    return a ? a->blocks : 0;
}

std::vector<ReqId>
BlockManager::holders() const
{
    std::vector<ReqId> out;
    out.reserve(num_holders_);
    for (const Alloc &a : per_req_)
        if (a.used)
            out.push_back(a.id);
    std::sort(out.begin(), out.end());
    return out;
}

double
BlockManager::occupancy() const
{
    return total_blocks_ ? static_cast<double>(used_blocks_) /
                               static_cast<double>(total_blocks_)
                         : 1.0;
}

std::size_t
BlockManager::home_of(ReqId id) const
{
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
}

BlockManager::Alloc *
BlockManager::find(ReqId id)
{
    std::size_t mask = per_req_.size() - 1;
    for (std::size_t i = home_of(id);; i = (i + 1) & mask) {
        Alloc &a = per_req_[i];
        if (!a.used)
            return nullptr;
        if (a.id == id)
            return &a;
    }
}

const BlockManager::Alloc *
BlockManager::find(ReqId id) const
{
    return const_cast<BlockManager *>(this)->find(id);
}

void
BlockManager::insert(const Alloc &a)
{
    if (2 * (num_holders_ + 1) > per_req_.size()) {
        std::vector<Alloc> old(2 * per_req_.size());
        old.swap(per_req_);
        --shift_;
        num_holders_ = 0;
        for (const Alloc &o : old)
            if (o.used)
                insert(o);
    }
    std::size_t mask = per_req_.size() - 1;
    std::size_t i = home_of(a.id);
    while (per_req_[i].used)
        i = (i + 1) & mask;
    per_req_[i] = a;
    per_req_[i].used = true;
    ++num_holders_;
}

void
BlockManager::erase(Alloc *slot)
{
    std::size_t mask = per_req_.size() - 1;
    std::size_t hole = static_cast<std::size_t>(slot - per_req_.data());
    for (std::size_t j = (hole + 1) & mask; per_req_[j].used;
         j = (j + 1) & mask) {
        // Shift j back into the hole unless its home slot lies
        // cyclically after the hole (it would then become unreachable).
        std::size_t home = home_of(per_req_[j].id);
        if (((j - home) & mask) >= ((j - hole) & mask)) {
            per_req_[hole] = per_req_[j];
            hole = j;
        }
    }
    per_req_[hole].used = false;
    --num_holders_;
}

void
BlockManager::set_audit(audit::SimAuditor *a, std::string owner)
{
    audit_ = a;
    audit_owner_ = std::move(owner);
}

} // namespace windserve::kvcache
