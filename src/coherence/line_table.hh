/**
 * @file
 * LineTable: a flat map from cache-line address to per-line state,
 * the storage behind the home directory, its transaction side table
 * and the victim buffer (coherence/node.hh).
 *
 * Open addressing with linear probing and backward-shift erase, so
 * there are no tombstones and a probe never walks past entries that
 * were already deleted. Capacity is a power of two that starts at
 * zero (nothing is allocated until the first insert, which matters
 * for the thousands of untouched homes of a 2048-node machine) and
 * doubles whenever an insert would fill more than half the slots. It
 * never shrinks.
 *
 * The hash keeps blocks of eight consecutive lines together: the
 * line index above the block is scrambled, and its three low bits
 * pick the slot within an eight-slot group. A home serving a stream
 * of neighbouring lines therefore probes neighbouring slots, rather
 * than one cold host cache line per directory lookup.
 *
 * Slot arrays of mapBytes or more are mapped straight from the OS and
 * unmapped as soon as they are outgrown. In glibc's malloc heap, the
 * arrays a doubling table leaves behind stayed resident and were
 * reused poorly by the next machine built in the same process: over
 * 21 back-to-back 16P STREAM machines, peak RSS crept from 58 to
 * 65 MB, against 59 MB with mapped arrays.
 *
 * Keys must be line-aligned (mem::lineOf); emptyKey is reserved.
 * Pointers and references into the table are invalidated by any
 * insert or erase.
 */

#ifndef GS_COHERENCE_LINE_TABLE_HH
#define GS_COHERENCE_LINE_TABLE_HH

#include <sys/mman.h>

#include <cstddef>
#include <new>
#include <utility>

#include "mem/address.hh"
#include "sim/logging.hh"
#include "sim/trace_span.hh"

namespace gs::coher
{

template <typename V>
class LineTable
{
  public:
    /** Reserved key marking a free slot (never line-aligned). */
    static constexpr mem::Addr emptyKey = ~mem::Addr(0);
    /** Slots allocated by the first insert. */
    static constexpr std::size_t initialCapacity = 8;
    /** slotOf() result for an absent line. */
    static constexpr std::size_t npos = ~std::size_t(0);
    /** Slot arrays at least this large are mmap'd, not malloc'd. */
    static constexpr std::size_t mapBytes = 64 * 1024;

    LineTable() = default;
    LineTable(const LineTable &) = delete;
    LineTable &operator=(const LineTable &) = delete;
    ~LineTable()
    {
        clear();
        freeSlots(slots_, capacity());
    }

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    std::size_t capacity() const { return slots_ ? mask_ + 1 : 0; }

    /** Heap bytes held: every slot, occupied or not. */
    std::size_t bytes() const { return capacity() * sizeof(Slot); }

    V *
    find(mem::Addr line)
    {
        const std::size_t i = slotOf(line);
        return i == npos ? nullptr : &slots_[i].val();
    }

    const V *
    find(mem::Addr line) const
    {
        const std::size_t i = slotOf(line);
        return i == npos ? nullptr : &slots_[i].val();
    }

    bool contains(mem::Addr line) const { return slotOf(line) != npos; }

    /** The entry for @p line, value-initialised if it was absent. */
    V &
    operator[](mem::Addr line)
    {
        gs_assert(line != emptyKey, "LineTable key is the empty marker");
        std::size_t i = npos;
        if (slots_) {
            for (i = homeSlot(line); slots_[i].key != emptyKey;
                 i = (i + 1) & mask_) {
                if (slots_[i].key == line)
                    return slots_[i].val();
            }
        }
        if (2 * (count_ + 1) > capacity()) {
            grow();
            i = freeSlotFor(line);
        }
        ::new (slots_[i].raw) V();
        slots_[i].key = line;
        count_ += 1;
        return slots_[i].val();
    }

    /** Remove @p line; returns whether it was present. */
    bool
    erase(mem::Addr line)
    {
        std::size_t hole = slotOf(line);
        if (hole == npos)
            return false;
        slots_[hole].val().~V();
        // Backward shift: pull each later member of the cluster into
        // the hole unless that would move it before its home slot.
        for (std::size_t j = (hole + 1) & mask_;
             slots_[j].key != emptyKey; j = (j + 1) & mask_) {
            const std::size_t home = homeSlot(slots_[j].key);
            if (((j - home) & mask_) >= ((j - hole) & mask_)) {
                relocate(slots_[j], slots_[hole]);
                hole = j;
            }
        }
        slots_[hole].key = emptyKey;
        count_ -= 1;
        return true;
    }

    /** Drop every entry; the slot array is kept. */
    void
    clear()
    {
        for (std::size_t i = 0; i < capacity(); ++i) {
            if (slots_[i].key != emptyKey) {
                slots_[i].val().~V();
                slots_[i].key = emptyKey;
            }
        }
        count_ = 0;
    }

    /** Call @p f(line, value) once per entry, in slot order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::size_t i = 0; i < capacity(); ++i)
            if (slots_[i].key != emptyKey)
                f(slots_[i].key, slots_[i].val());
    }

    /** Slot the probe for @p line starts at (capacity must be > 0). */
    std::size_t
    homeSlot(mem::Addr line) const
    {
        const std::uint64_t idx = mem::lineIndex(line);
        return static_cast<std::size_t>(
                   (trace::mix64(idx >> 3) << 3) | (idx & 7)) &
               mask_;
    }

    /** Slot holding @p line, or npos. */
    std::size_t
    slotOf(mem::Addr line) const
    {
        if (!slots_)
            return npos;
        for (std::size_t i = homeSlot(line);; i = (i + 1) & mask_) {
            if (slots_[i].key == line)
                return i;
            if (slots_[i].key == emptyKey)
                return npos;
        }
    }

  private:
    struct Slot
    {
        mem::Addr key;
        alignas(V) unsigned char raw[sizeof(V)];

        V &val() { return *std::launder(reinterpret_cast<V *>(raw)); }
        const V &
        val() const
        {
            return *std::launder(reinterpret_cast<const V *>(raw));
        }
    };
    static_assert(alignof(Slot) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

    /** @p n free slots. */
    static Slot *
    allocSlots(std::size_t n)
    {
        const std::size_t bytes = n * sizeof(Slot);
        void *p;
        if (bytes < mapBytes) {
            p = ::operator new(bytes);
        } else {
            p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (p == MAP_FAILED)
                throw std::bad_alloc();
        }
        Slot *slots = static_cast<Slot *>(p);
        for (std::size_t i = 0; i < n; ++i)
            (::new (&slots[i]) Slot)->key = emptyKey;
        return slots;
    }

    static void
    freeSlots(Slot *slots, std::size_t n)
    {
        if (!slots)
            return;
        if (n * sizeof(Slot) < mapBytes)
            ::operator delete(slots);
        else
            munmap(slots, n * sizeof(Slot));
    }

    static void
    relocate(Slot &from, Slot &to)
    {
        ::new (to.raw) V(std::move(from.val()));
        from.val().~V();
        to.key = from.key;
    }

    std::size_t
    freeSlotFor(mem::Addr line) const
    {
        std::size_t i = homeSlot(line);
        while (slots_[i].key != emptyKey)
            i = (i + 1) & mask_;
        return i;
    }

    void
    grow()
    {
        const std::size_t oldCap = capacity();
        const std::size_t cap = oldCap ? 2 * oldCap : initialCapacity;
        Slot *old = slots_;
        slots_ = allocSlots(cap);
        mask_ = cap - 1;
        for (std::size_t i = 0; i < oldCap; ++i)
            if (old[i].key != emptyKey)
                relocate(old[i], slots_[freeSlotFor(old[i].key)]);
        freeSlots(old, oldCap);
    }

    Slot *slots_ = nullptr;
    std::size_t mask_ = 0;
    std::size_t count_ = 0;
};

} // namespace gs::coher

#endif // GS_COHERENCE_LINE_TABLE_HH
