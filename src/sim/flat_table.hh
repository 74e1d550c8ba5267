/**
 * @file
 * Open-addressing hash table for the model hot paths.
 *
 * The per-access model containers (block cache, buffer cache, HDC
 * store, prefetcher) used to hash-probe through std::unordered_map,
 * which costs a heap-allocated node per entry and a pointer chase per
 * probe. FlatTable stores keys and values in flat arrays with linear
 * probing over a power-of-two slot count, so a lookup is one multiply
 * (Fibonacci hashing) and a short contiguous scan, and steady-state
 * operation allocates nothing.
 *
 * Deletion uses backward-shift compaction instead of tombstones, so
 * probe distances stay short no matter how many erase/insert cycles a
 * workload performs (caches churn entries continuously). Iteration
 * order is unspecified, exactly like unordered_map; callers that need
 * an order sort (e.g. HdcStore::flush -> DiskController sorts the
 * dirty set before building media jobs).
 */

#ifndef DTSIM_SIM_FLAT_TABLE_HH
#define DTSIM_SIM_FLAT_TABLE_HH

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace dtsim {

/**
 * Open-addressing map from a 64-bit key to a small value type.
 *
 * @tparam V Mapped type; moved on rehash and backward shift, so keep
 *         it cheap (the model containers store slot indices or flag
 *         bytes).
 */
template <typename V>
class FlatTable
{
  public:
    /** @param expected Entries to size the table for up front. */
    explicit FlatTable(std::size_t expected = 0)
    {
        rehash(slotsFor(expected));
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Grow the slot array so `n` entries fit without rehashing. */
    void
    reserve(std::size_t n)
    {
        const std::size_t want = slotsFor(n);
        if (want > slots())
            rehash(want);
    }

    /** Pointer to the value mapped to `key`, or nullptr. */
    V*
    find(std::uint64_t key)
    {
        const std::size_t i = probe(key);
        return i != kNone ? &vals_[i] : nullptr;
    }

    const V*
    find(std::uint64_t key) const
    {
        const std::size_t i = probe(key);
        return i != kNone ? &vals_[i] : nullptr;
    }

    bool contains(std::uint64_t key) const { return probe(key) != kNone; }

    /**
     * Hint that `key` will be looked up soon: start loading its home
     * slot into the CPU cache. No effect on the table's contents.
     */
    void
    prefetch(std::uint64_t key) const
    {
        const std::size_t i = home(key);
        __builtin_prefetch(&used_[i]);
        __builtin_prefetch(&keys_[i]);
        __builtin_prefetch(&vals_[i]);
    }

    /**
     * Insert `key` -> `val` if absent.
     * @return The mapped value slot and whether it was inserted.
     */
    std::pair<V*, bool>
    insert(std::uint64_t key, V val)
    {
        if ((size_ + 1) * 8 > slots() * 7)
            rehash(slots() * 2);
        std::size_t i = home(key);
        while (used_[i]) {
            if (keys_[i] == key)
                return {&vals_[i], false};
            i = next(i);
        }
        used_[i] = 1;
        keys_[i] = key;
        vals_[i] = std::move(val);
        ++size_;
        return {&vals_[i], true};
    }

    /** @return true if `key` was present and removed. */
    bool
    erase(std::uint64_t key)
    {
        std::size_t i = probe(key);
        if (i == kNone)
            return false;
        // Backward-shift: pull displaced entries over the hole so the
        // probe sequences they belong to stay contiguous.
        std::size_t j = i;
        for (;;) {
            j = next(j);
            if (!used_[j])
                break;
            const std::size_t h = home(keys_[j]);
            // The entry at j may fill the hole at i only if its home
            // slot lies cyclically at or before i.
            if (((j - h) & mask_) >= ((j - i) & mask_)) {
                keys_[i] = keys_[j];
                vals_[i] = std::move(vals_[j]);
                i = j;
            }
        }
        used_[i] = 0;
        --size_;
        return true;
    }

    /** Drop every entry (keeps the slot array). */
    void
    clear()
    {
        std::fill(used_.begin(), used_.end(), std::uint8_t{0});
        size_ = 0;
    }

    /** Visit every entry as fn(key, value&); order is unspecified. */
    template <typename Fn>
    void
    forEach(Fn&& fn)
    {
        for (std::size_t i = 0; i < used_.size(); ++i)
            if (used_[i])
                fn(keys_[i], vals_[i]);
    }

    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        for (std::size_t i = 0; i < used_.size(); ++i)
            if (used_[i])
                fn(keys_[i], vals_[i]);
    }

  private:
    static constexpr std::size_t kNone = ~std::size_t{0};
    static constexpr std::size_t kMinSlots = 16;

    std::size_t slots() const { return mask_ + 1; }

    /** Smallest power-of-two slot count keeping load below 7/8. */
    static std::size_t
    slotsFor(std::size_t entries)
    {
        std::size_t n = kMinSlots;
        while (entries * 8 > n * 7)
            n *= 2;
        return n;
    }

    std::size_t
    home(std::uint64_t key) const
    {
        // Fibonacci hashing: spreads consecutive block numbers (the
        // common key pattern) across the table.
        return static_cast<std::size_t>(
                   (key * 0x9e3779b97f4a7c15ULL) >> shift_) &
               mask_;
    }

    std::size_t next(std::size_t i) const { return (i + 1) & mask_; }

    /** Slot holding `key`, or kNone. */
    std::size_t
    probe(std::uint64_t key) const
    {
        std::size_t i = home(key);
        while (used_[i]) {
            if (keys_[i] == key)
                return i;
            i = next(i);
        }
        return kNone;
    }

    void
    rehash(std::size_t new_slots)
    {
        assert((new_slots & (new_slots - 1)) == 0);
        std::vector<std::uint64_t> old_keys = std::move(keys_);
        std::vector<V> old_vals = std::move(vals_);
        std::vector<std::uint8_t> old_used = std::move(used_);

        keys_.assign(new_slots, 0);
        vals_.assign(new_slots, V{});
        used_.assign(new_slots, 0);
        mask_ = new_slots - 1;
        shift_ = 64;
        for (std::size_t n = new_slots; n > 1; n /= 2)
            --shift_;

        for (std::size_t i = 0; i < old_used.size(); ++i) {
            if (!old_used[i])
                continue;
            std::size_t j = home(old_keys[i]);
            while (used_[j])
                j = next(j);
            used_[j] = 1;
            keys_[j] = old_keys[i];
            vals_[j] = std::move(old_vals[i]);
        }
    }

    std::vector<std::uint64_t> keys_;
    std::vector<V> vals_;
    std::vector<std::uint8_t> used_;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
    std::size_t size_ = 0;
};

} // namespace dtsim

#endif // DTSIM_SIM_FLAT_TABLE_HH
