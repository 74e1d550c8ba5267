/**
 * @file
 * Intrusive slab-backed doubly-linked lists.
 *
 * The model caches keep recency state in linked lists whose length is
 * bounded by the cache capacity, which is fixed at construction. A
 * Slab pre-allocates every node once (payload plus prev/next slot
 * indices, free slots threaded through a freelist), so list churn --
 * the per-access splice/evict/insert pattern -- performs zero heap
 * allocation and touches 32-bit indices instead of 64-bit pointers.
 *
 * A SlabList is just a head/tail/size view; several lists can share
 * one slab (the block cache runs its used and unused lists over a
 * single pool of capacity slots).
 */

#ifndef DTSIM_SIM_SLAB_LIST_HH
#define DTSIM_SIM_SLAB_LIST_HH

#include <cassert>
#include <cstdint>
#include <vector>

namespace dtsim {

/** Sentinel slot index ("null pointer"). */
constexpr std::uint32_t kNullSlot = 0xffffffffu;

/** Fixed pool of list nodes carrying a T payload each. */
template <typename T>
class Slab
{
  public:
    explicit Slab(std::uint32_t capacity) : nodes_(capacity)
    {
        reset();
    }

    /**
     * Free every slot at once, in one sequential pass. Lists that
     * lived in the slab are invalid afterwards; reset them too.
     */
    void
    reset()
    {
        // Thread the freelist through next so allocation is O(1).
        const std::uint32_t n = capacity();
        for (std::uint32_t i = 0; i < n; ++i)
            nodes_[i].next = i + 1 < n ? i + 1 : kNullSlot;
        freeHead_ = n > 0 ? 0 : kNullSlot;
        freeCount_ = n;
    }

    std::uint32_t
    capacity() const
    {
        return static_cast<std::uint32_t>(nodes_.size());
    }

    std::uint32_t freeCount() const { return freeCount_; }

    /** Pop a free slot; the caller links it into a list. */
    std::uint32_t
    allocate()
    {
        assert(freeHead_ != kNullSlot && "slab exhausted");
        const std::uint32_t n = freeHead_;
        freeHead_ = nodes_[n].next;
        --freeCount_;
        return n;
    }

    /** Return an unlinked slot to the freelist. */
    void
    release(std::uint32_t n)
    {
        nodes_[n].next = freeHead_;
        freeHead_ = n;
        ++freeCount_;
    }

    T& operator[](std::uint32_t n) { return nodes_[n].data; }
    const T& operator[](std::uint32_t n) const { return nodes_[n].data; }

    std::uint32_t nextOf(std::uint32_t n) const { return nodes_[n].next; }
    std::uint32_t prevOf(std::uint32_t n) const { return nodes_[n].prev; }

  private:
    template <typename U>
    friend class SlabListOps;

    struct Node
    {
        std::uint32_t prev = kNullSlot;
        std::uint32_t next = kNullSlot;
        T data{};
    };

    std::vector<Node> nodes_;
    std::uint32_t freeHead_;
    std::uint32_t freeCount_;
};

/** Head/tail/size of one list whose nodes live in a shared Slab. */
struct SlabList
{
    std::uint32_t head = kNullSlot;
    std::uint32_t tail = kNullSlot;
    std::uint64_t size = 0;

    bool empty() const { return size == 0; }
};

/** The link/unlink operations of SlabLists over a Slab<T>. */
template <typename T>
class SlabListOps
{
  public:
    static void
    pushFront(Slab<T>& s, SlabList& l, std::uint32_t n)
    {
        s.nodes_[n].prev = kNullSlot;
        s.nodes_[n].next = l.head;
        if (l.head != kNullSlot)
            s.nodes_[l.head].prev = n;
        else
            l.tail = n;
        l.head = n;
        ++l.size;
    }

    static void
    pushBack(Slab<T>& s, SlabList& l, std::uint32_t n)
    {
        s.nodes_[n].next = kNullSlot;
        s.nodes_[n].prev = l.tail;
        if (l.tail != kNullSlot)
            s.nodes_[l.tail].next = n;
        else
            l.head = n;
        l.tail = n;
        ++l.size;
    }

    /** Unlink `n` from `l` (does not release the slot). */
    static void
    unlink(Slab<T>& s, SlabList& l, std::uint32_t n)
    {
        auto& node = s.nodes_[n];
        if (node.prev != kNullSlot)
            s.nodes_[node.prev].next = node.next;
        else
            l.head = node.next;
        if (node.next != kNullSlot)
            s.nodes_[node.next].prev = node.prev;
        else
            l.tail = node.prev;
        assert(l.size > 0);
        --l.size;
    }

    /** Splice `n` to the front of `l` (the LRU/MRU touch). */
    static void
    moveToFront(Slab<T>& s, SlabList& l, std::uint32_t n)
    {
        if (l.head == n)
            return;
        unlink(s, l, n);
        pushFront(s, l, n);
    }
};

} // namespace dtsim

#endif // DTSIM_SIM_SLAB_LIST_HH
