/**
 * @file
 * Open-addressing hash containers for u64 keys (addresses, block
 * indices): FlatMap<V> and FlatSet. Power-of-two capacity, linear
 * probing with backward-shift deletion (no tombstones, so probe chains
 * never rot), splitmix64 key mixing (simulated addresses are multiples
 * of 64 and metadata spaces sit at 1<<40 / 1<<41 — the raw keys are
 * catastrophically non-uniform).
 *
 * Layout: a 1-byte control array beside the entry array. A control
 * byte is 0 for an empty slot, or 0x80 | the hash's top 7 bits for an
 * occupied one (the home slot comes from the low bits, so the tag is
 * independent of it). A probe scans control bytes only and reads an
 * entry's key just on a tag match, so a miss through a long chain of
 * 72-byte image entries touches a few bytes per slot, not the entries.
 * Entries are std::pair<u64, V> for FlatMap and bare keys for FlatSet.
 *
 * These replace std::unordered_map/set on the simulator's hot paths
 * (stored images, write timestamps, version maps, check sidecars),
 * where the node-based layout costs an allocation plus a dependent
 * pointer chase per lookup. Semantics match the std containers for the
 * operations offered, with one deliberate difference: references and
 * iterators are invalidated by ANY insertion (the slot array may
 * rehash), not just by rehash-past-load-factor. Callers must not hold
 * a reference across an insert into the same container.
 *
 * Iteration order is unspecified and changes across rehashes — exactly
 * like the std containers. Call sites that need determinism sort, as
 * MemoryController::imageAddressesSorted always has.
 */

#ifndef COP_COMMON_FLAT_MAP_HPP
#define COP_COMMON_FLAT_MAP_HPP

#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace cop {

namespace detail {

/** splitmix64 finaliser: full-avalanche mix of a 64-bit key. */
inline u64
flatHash(u64 key)
{
    key += 0x9e3779b97f4a7c15ULL;
    key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ULL;
    key = (key ^ (key >> 27)) * 0x94d049bb133111ebULL;
    return key ^ (key >> 31);
}

/** Smallest power of two >= @p n (and >= 16). */
inline u64
flatCapacityFor(u64 n)
{
    u64 cap = 16;
    while (cap < n)
        cap <<= 1;
    return cap;
}

/** Control byte of an occupied slot whose key hashes to @p hash. */
inline u8
flatTag(u64 hash)
{
    return static_cast<u8>(0x80 | (hash >> 57));
}

inline u64
flatKey(u64 key)
{
    return key;
}

template <typename V>
inline u64
flatKey(const std::pair<u64, V> &kv)
{
    return kv.first;
}

/**
 * Slot storage and probing shared by FlatMap and FlatSet. Grows at 7/8
 * load (linear probing stays fast well past the usual 0.7 rule of thumb
 * because deletion backward-shifts instead of leaving tombstones; 7/8
 * keeps the footprint-reserved maps compact), and only when a key is
 * actually inserted.
 */
template <typename Entry> class FlatTable
{
  public:
    static constexpr size_t kNotFound = static_cast<size_t>(-1);

    /** Slot holding @p key, or kNotFound. */
    size_t
    find(u64 key) const
    {
        if (ctrl.empty())
            return kNotFound;
        const u64 hash = flatHash(key);
        const u8 tag = flatTag(hash);
        size_t pos = static_cast<size_t>(hash) & mask_;
        for (u8 c; (c = ctrl[pos]) != 0; pos = (pos + 1) & mask_) {
            if (c == tag && flatKey(slots[pos]) == key)
                return pos;
        }
        return kNotFound;
    }

    /**
     * Slot holding @p key; when absent, mark an empty slot occupied
     * (growing first if due) and return it with second = true. The
     * caller must then store an entry with @p key in that slot.
     */
    std::pair<size_t, bool>
    claim(u64 key)
    {
        if (ctrl.empty())
            rehash(16);
        const u64 hash = flatHash(key);
        const u8 tag = flatTag(hash);
        size_t pos = static_cast<size_t>(hash) & mask_;
        for (u8 c; (c = ctrl[pos]) != 0; pos = (pos + 1) & mask_) {
            if (c == tag && flatKey(slots[pos]) == key)
                return {pos, false};
        }
        if (size_ + 1 > ctrl.size() - ctrl.size() / 8) {
            rehash(ctrl.size() * 2);
            pos = emptySlotFor(hash);
        }
        ctrl[pos] = tag;
        ++size_;
        return {pos, true};
    }

    size_t count(u64 key) const { return find(key) == kNotFound ? 0 : 1; }

    /** Erase by key; returns the number of entries removed (0 or 1). */
    size_t
    erase(u64 key)
    {
        const size_t pos = find(key);
        if (pos == kNotFound)
            return 0;
        // Backward-shift deletion: pull every displaced follower of the
        // probe chain one hole back, so lookups never need tombstones.
        size_t hole = pos;
        for (size_t next = (hole + 1) & mask_; ctrl[next] != 0;
             next = (next + 1) & mask_) {
            const size_t home =
                static_cast<size_t>(flatHash(flatKey(slots[next]))) &
                mask_;
            // `next` may fill the hole iff its home slot does not lie
            // in the cyclic range (hole, next] — otherwise moving it
            // would place it before its home and break its own chain.
            if (((next - home) & mask_) >= ((next - hole) & mask_)) {
                slots[hole] = std::move(slots[next]);
                ctrl[hole] = ctrl[next];
                hole = next;
            }
        }
        slots[hole] = Entry();
        ctrl[hole] = 0;
        --size_;
        return 1;
    }

    /** Pre-size so @p n entries fit without rehashing. */
    void
    reserve(u64 n)
    {
        const u64 want = flatCapacityFor(n + n / 7 + 1);
        if (want > ctrl.size())
            rehash(want);
    }

    void
    clear()
    {
        ctrl.clear();
        slots.clear();
        mask_ = 0;
        size_ = 0;
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** Allocated slot count (load-factor observability). */
    u64 capacity() const { return ctrl.size(); }

  protected:
    std::vector<u8> ctrl;
    std::vector<Entry> slots;

  private:
    /** First empty slot on the probe path of @p hash. */
    size_t
    emptySlotFor(u64 hash) const
    {
        size_t pos = static_cast<size_t>(hash) & mask_;
        while (ctrl[pos] != 0)
            pos = (pos + 1) & mask_;
        return pos;
    }

    void
    rehash(u64 new_capacity)
    {
        std::vector<u8> old_ctrl = std::move(ctrl);
        std::vector<Entry> old_slots = std::move(slots);
        ctrl.assign(static_cast<size_t>(new_capacity), 0);
        slots.assign(static_cast<size_t>(new_capacity), Entry());
        mask_ = static_cast<size_t>(new_capacity - 1);
        for (size_t i = 0; i < old_ctrl.size(); ++i) {
            if (old_ctrl[i] == 0)
                continue;
            const size_t pos =
                emptySlotFor(flatHash(flatKey(old_slots[i])));
            slots[pos] = std::move(old_slots[i]);
            ctrl[pos] = old_ctrl[i];
        }
    }

    size_t mask_ = 0;
    size_t size_ = 0;
};

} // namespace detail

/** Open-addressing hash map from u64 keys to @p V. */
template <typename V>
class FlatMap : private detail::FlatTable<std::pair<u64, V>>
{
    using Table = detail::FlatTable<std::pair<u64, V>>;
    using Table::ctrl;
    using Table::kNotFound;
    using Table::slots;

  public:
    using value_type = std::pair<u64, V>;

    template <bool Const> class Iter
    {
      public:
        using SlotPtr =
            std::conditional_t<Const, const value_type *, value_type *>;
        using Ref =
            std::conditional_t<Const, const value_type &, value_type &>;

        Iter() = default;
        Iter(const u8 *ctrl, SlotPtr pos, SlotPtr end)
            : ctrl_(ctrl), pos_(pos), end_(end)
        {
            skipEmpty();
        }

        /** iterator -> const_iterator conversion. */
        template <bool WasConst,
                  typename = std::enable_if_t<Const && !WasConst>>
        Iter(const Iter<WasConst> &o)
            : ctrl_(o.ctrl_), pos_(o.pos_), end_(o.end_)
        {
        }

        Ref operator*() const { return *pos_; }
        SlotPtr operator->() const { return pos_; }

        Iter &
        operator++()
        {
            ++ctrl_;
            ++pos_;
            skipEmpty();
            return *this;
        }

        bool operator==(const Iter &o) const { return pos_ == o.pos_; }
        bool operator!=(const Iter &o) const { return pos_ != o.pos_; }

      private:
        template <bool> friend class Iter;

        void
        skipEmpty()
        {
            while (pos_ != end_ && *ctrl_ == 0) {
                ++ctrl_;
                ++pos_;
            }
        }

        const u8 *ctrl_ = nullptr;
        SlotPtr pos_ = nullptr;
        SlotPtr end_ = nullptr;
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    using Table::capacity;
    using Table::clear;
    using Table::count;
    using Table::empty;
    using Table::erase;
    using Table::reserve;
    using Table::size;

    iterator find(u64 key) { return at(Table::find(key)); }
    const_iterator find(u64 key) const { return at(Table::find(key)); }

    /**
     * Insert (key, V(args...)) unless the key is present; returns the
     * entry's iterator and whether it was inserted. Value construction
     * is skipped entirely when the key already exists.
     */
    template <typename... Args>
    std::pair<iterator, bool>
    emplace(u64 key, Args &&...args)
    {
        const auto [pos, inserted] = this->claim(key);
        if (inserted)
            slots[pos] = value_type(key, V(std::forward<Args>(args)...));
        return {at(pos), inserted};
    }

    V &operator[](u64 key) { return emplace(key).first->second; }

    iterator begin() { return at(0); }
    iterator end() { return at(kNotFound); }
    const_iterator begin() const { return at(0); }
    const_iterator end() const { return at(kNotFound); }

  private:
    /** Iterator at slot @p pos (kNotFound: end()). */
    iterator
    at(size_t pos)
    {
        value_type *last = slots.data() + slots.size();
        if (pos == kNotFound)
            return iterator(nullptr, last, last);
        return iterator(ctrl.data() + pos, slots.data() + pos, last);
    }

    const_iterator
    at(size_t pos) const
    {
        const value_type *last = slots.data() + slots.size();
        if (pos == kNotFound)
            return const_iterator(nullptr, last, last);
        return const_iterator(ctrl.data() + pos, slots.data() + pos, last);
    }
};

/** Open-addressing hash set of u64 keys; the slots hold bare keys. */
class FlatSet : private detail::FlatTable<u64>
{
  public:
    /** Insert @p key; returns true when it was not already present. */
    bool
    insert(u64 key)
    {
        const auto [pos, inserted] = claim(key);
        if (inserted)
            slots[pos] = key;
        return inserted;
    }

    using FlatTable::capacity;
    using FlatTable::clear;
    using FlatTable::count;
    using FlatTable::empty;
    using FlatTable::erase;
    using FlatTable::reserve;
    using FlatTable::size;
};

} // namespace cop

#endif // COP_COMMON_FLAT_MAP_HPP
