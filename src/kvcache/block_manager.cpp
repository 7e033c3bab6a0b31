#include "kvcache/block_manager.hpp"

#include <algorithm>
#include <stdexcept>

namespace windserve::kvcache {

BlockManager::BlockManager(std::size_t total_blocks, std::size_t block_size)
    : total_blocks_(total_blocks), block_size_(block_size)
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
    bool fresh = per_req_.find(id) == nullptr;
    bool fits = need <= free_blocks();
    if (probe_) {
        probe_->emit(obs::ProbeKind::KvAlloc, owner_, id,
                     obs::KvOp{tokens, need, fresh && fits, used_blocks_,
                               total_blocks_});
    }
    if (!fresh)
        throw std::logic_error("BlockManager::allocate: id already held");
    if (!fits)
        return false;
    used_blocks_ += need;
    total_tokens_ += tokens;
    per_req_.set(id, Alloc{tokens, need});
    return true;
}

bool
BlockManager::grow(ReqId id, std::size_t new_tokens)
{
    Alloc *a = per_req_.find(id);
    bool known = a != nullptr;
    bool growing = known && new_tokens >= a->tokens;
    std::size_t need = blocks_for(new_tokens);
    std::size_t extra = known && need > a->blocks ? need - a->blocks : 0;
    bool fits = extra <= free_blocks();
    if (probe_) {
        probe_->emit(obs::ProbeKind::KvGrow, owner_, id,
                     obs::KvOp{new_tokens, need, known && growing && fits,
                               used_blocks_, total_blocks_});
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
    Alloc *a = per_req_.find(id);
    bool known = a != nullptr;
    if (probe_) {
        probe_->emit(obs::ProbeKind::KvRelease, owner_, id,
                     obs::KvOp{0, known ? a->blocks : 0, known, used_blocks_,
                               total_blocks_});
    }
    if (!known)
        return;
    used_blocks_ -= a->blocks;
    total_tokens_ -= a->tokens;
    per_req_.erase(id);
}

std::size_t
BlockManager::tokens_of(ReqId id) const
{
    const Alloc *a = per_req_.find(id);
    return a ? a->tokens : 0;
}

std::size_t
BlockManager::blocks_of(ReqId id) const
{
    const Alloc *a = per_req_.find(id);
    return a ? a->blocks : 0;
}

std::vector<ReqId>
BlockManager::holders() const
{
    std::vector<ReqId> out;
    out.reserve(per_req_.size());
    per_req_.for_each([&](ReqId id, const Alloc &) { out.push_back(id); });
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

} // namespace windserve::kvcache
