/**
 * @file
 * A flat map from 64-bit ids to small values, for per-request state
 * that lives only while a request is in flight.
 *
 * Open addressing: a Fibonacci hash of the id, linear probing, at most
 * half full, backward-shift deletion (no tombstones). Memory follows
 * the ids held right now, not the largest id ever seen, and a lookup
 * never chases a node pointer.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace windserve::sim {

template <class V>
class FlatIdMap
{
  public:
    FlatIdMap()
        : slots_(std::size_t{1} << kInitialLog2), shift_(64 - kInitialLog2)
    {}

    std::size_t size() const { return size_; }

    /** The value of @p id, or nullptr if it holds none. */
    V *find(std::uint64_t id)
    {
        std::size_t i = slot_of(id);
        return i == kNone ? nullptr : &slots_[i].value;
    }
    const V *find(std::uint64_t id) const
    {
        std::size_t i = slot_of(id);
        return i == kNone ? nullptr : &slots_[i].value;
    }

    /** Set @p id 's value, inserting it if absent. */
    void set(std::uint64_t id, V value)
    {
        if (V *v = find(id)) {
            *v = value;
            return;
        }
        if (2 * (size_ + 1) > slots_.size())
            grow();
        place(Slot{id, value, true});
        ++size_;
    }

    /** Call @p fn(id, value) for every id held, in table order. */
    template <class Fn>
    void for_each(Fn &&fn) const
    {
        for (const Slot &s : slots_)
            if (s.used)
                fn(s.id, s.value);
    }

    /** Drop @p id. @return false if it held nothing. */
    bool erase(std::uint64_t id)
    {
        std::size_t hole = slot_of(id);
        if (hole == kNone)
            return false;
        std::size_t mask = slots_.size() - 1;
        for (std::size_t j = (hole + 1) & mask; slots_[j].used;
             j = (j + 1) & mask) {
            // Shift j back into the hole unless its home slot lies
            // cyclically after the hole (it would become unreachable).
            std::size_t home = home_of(slots_[j].id);
            if (((j - home) & mask) >= ((j - hole) & mask)) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole].used = false;
        --size_;
        return true;
    }

  private:
    static constexpr unsigned kInitialLog2 = 4;
    static constexpr std::size_t kNone = ~std::size_t{0};

    struct Slot {
        std::uint64_t id = 0;
        V value{};
        bool used = false;
    };

    std::size_t home_of(std::uint64_t id) const
    {
        return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ull) >>
                                        shift_);
    }

    /** Index of @p id 's slot, or kNone. */
    std::size_t slot_of(std::uint64_t id) const
    {
        std::size_t mask = slots_.size() - 1;
        for (std::size_t i = home_of(id);; i = (i + 1) & mask) {
            if (!slots_[i].used)
                return kNone;
            if (slots_[i].id == id)
                return i;
        }
    }

    void place(const Slot &s)
    {
        std::size_t mask = slots_.size() - 1;
        std::size_t i = home_of(s.id);
        while (slots_[i].used)
            i = (i + 1) & mask;
        slots_[i] = s;
    }

    void grow()
    {
        std::vector<Slot> old(2 * slots_.size());
        old.swap(slots_);
        --shift_;
        for (const Slot &s : old)
            if (s.used)
                place(s);
    }

    std::vector<Slot> slots_;
    unsigned shift_;
    std::size_t size_ = 0;
};

} // namespace windserve::sim
