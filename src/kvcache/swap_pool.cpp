#include "kvcache/swap_pool.hpp"

#include <algorithm>
#include <stdexcept>

namespace windserve::kvcache {

SwapPool::SwapPool(double capacity_bytes, double bytes_per_token)
    : capacity_bytes_(capacity_bytes), bytes_per_token_(bytes_per_token)
{
    if (bytes_per_token_ <= 0.0)
        throw std::invalid_argument("SwapPool: bytes_per_token must be > 0");
}

bool
SwapPool::swap_out(ReqId id, std::size_t tokens)
{
    bool held = tokens_.count(id) > 0;
    double bytes = bytes_for(tokens);
    bool fits = used_bytes_ + bytes <= capacity_bytes_;
    if (probe_) {
        probe_->emit(obs::ProbeKind::SwapOut, owner_, id,
                     obs::PoolOp{tokens, bytes, !held && fits, held,
                                 used_bytes_, capacity_bytes_});
    }
    if (held)
        throw std::logic_error("SwapPool::swap_out: id already swapped");
    if (!fits)
        return false;
    tokens_[id] = tokens;
    used_bytes_ += bytes;
    ++swap_out_events_;
    swapped_bytes_total_ += bytes;
    return true;
}

void
SwapPool::swap_in(ReqId id)
{
    auto it = tokens_.find(id);
    const bool known = it != tokens_.end();
    const std::size_t tokens = known ? it->second : 0;
    double bytes = bytes_for(tokens);
    if (probe_) {
        probe_->emit(obs::ProbeKind::SwapIn, owner_, id,
                     obs::PoolOp{tokens, bytes, known, false, used_bytes_,
                                 capacity_bytes_});
    }
    if (!known)
        throw std::logic_error("SwapPool::swap_in: id not swapped");
    used_bytes_ -= bytes;
    swapped_bytes_total_ += bytes;
    ++swap_in_events_;
    tokens_.erase(it);
}

void
SwapPool::drop(ReqId id)
{
    auto it = tokens_.find(id);
    if (it == tokens_.end())
        return; // nothing to discard
    // Ledger-wise a drop is a swap-in that skips the DMA: the auditor
    // credits the bytes back against this id.
    const double bytes = bytes_for(it->second);
    if (probe_) {
        probe_->emit(obs::ProbeKind::SwapDrop, owner_, id,
                     obs::PoolOp{it->second, bytes, true, false, used_bytes_,
                                 capacity_bytes_});
    }
    used_bytes_ -= bytes;
    ++drops_;
    tokens_.erase(it);
}

std::vector<ReqId>
SwapPool::holders() const
{
    std::vector<ReqId> out;
    out.reserve(tokens_.size());
    for (const auto &[id, t] : tokens_)
        out.push_back(id);
    std::sort(out.begin(), out.end());
    return out;
}

std::size_t
SwapPool::tokens_of(ReqId id) const
{
    auto it = tokens_.find(id);
    return it == tokens_.end() ? 0 : it->second;
}

double
SwapPool::bytes_for(std::size_t tokens) const
{
    return static_cast<double>(tokens) * bytes_per_token_;
}

} // namespace windserve::kvcache
