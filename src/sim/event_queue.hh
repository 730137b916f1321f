/**
 * @file
 * Discrete-event kernel: a time-ordered queue of callbacks.
 *
 * Events scheduled for the same tick fire in FIFO order of their
 * scheduling (a monotone sequence number breaks ties), which keeps
 * component interactions deterministic and reproducible.
 *
 * Internally the queue is a hierarchical calendar: a power-of-two
 * ring of buckets covers the near future (bucketWidth ticks per
 * bucket, bucketCount buckets of horizon total), and anything
 * scheduled beyond the ring's window waits in an overflow min-heap
 * until the window slides over it. Steady-state traffic — network
 * cycles, memory callbacks, coherence hops, all within a few hundred
 * nanoseconds of now — lands in a warm bucket vector with no heap
 * ordering work and, because callbacks are InlineFn rather than
 * std::function, no allocation. The fire order is contractual and
 * identical to a single (when, seq) min-heap; see
 * tests/sim/event_queue_ab_test.cc, which locks the two
 * implementations together, and docs/EVENT_KERNEL.md for sizing.
 */

#ifndef GS_SIM_EVENT_QUEUE_HH
#define GS_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/inline_fn.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace gs
{

/**
 * A discrete-event queue with a current simulated time.
 *
 * The queue owns the notion of "now": callbacks observe time via
 * now() and schedule further work with schedule()/scheduleAt().
 */
class EventQueue
{
  public:
    /** @name Calendar geometry (see docs/EVENT_KERNEL.md) */
    /// @{
    /** log2 of the bucket width in ticks. */
    static constexpr int bucketBits = 12;

    /** One bucket covers this many ticks (~4.1 ns at 1 tick = 1 ps). */
    static constexpr Tick bucketWidth = Tick(1) << bucketBits;

    /** Number of buckets in the ring (power of two). */
    static constexpr std::size_t bucketCount = 1024;

    /** Ring window span; events past it go to the overflow heap. */
    static constexpr Tick horizon = bucketWidth * bucketCount;
    /// @}

    /**
     * Sequence-number bands. Locally scheduled events draw their
     * tie-breaking sequence numbers from the upper band; events
     * merged in from another domain's mailbox (scheduleMergedAt, the
     * parallel engine's barrier merge) draw from the lower band.
     * Cross-domain arrivals and credits therefore fire before any
     * same-tick locally scheduled event — exactly the order the
     * serial engine produces, where a credit or arrival for tick T
     * is always scheduled before the self-ticking network event for
     * T (see docs/PARALLEL.md). Serial runs never use the lower
     * band, so their ordering is unchanged.
     */
    static constexpr std::uint64_t localSeqBase = std::uint64_t(1) << 63;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return curTick; }

    /** Number of events not yet fired. */
    std::size_t pending() const { return pendingCnt; }

    bool empty() const { return pending() == 0; }

    /** @name Self-metrics (telemetry / --verbose bench reporting) */
    /// @{
    /** Events fired since construction. */
    std::uint64_t firedCount() const { return fired; }

    /** High-water mark of the pending-event count. */
    std::size_t peakPending() const { return peak; }

    /** Events currently resident in the near-future bucket ring. */
    std::size_t ringPending() const { return ringCount; }

    /** Events currently parked in the overflow heap. */
    std::size_t overflowPending() const { return heap.size(); }

    /** Events migrated overflow-heap -> ring since construction. */
    std::uint64_t overflowMigrations() const { return migrated; }
    /// @}

    /**
     * Schedule @p fn at absolute time @p when (>= now).
     *
     * Templated on the callable so the capture is constructed
     * directly inside the calendar slot — no intermediate EventFn
     * relocation on the hot path.
     */
    template <typename F>
    void
    scheduleAt(Tick when, F &&fn)
    {
        scheduleAt(when, ckpt::EventDesc{}, std::forward<F>(fn));
    }

    /**
     * Schedule @p fn at @p when, tagged with @p desc so the event
     * can be serialized into a machine snapshot and rebuilt at
     * restore. The untagged overload marks the event Opaque —
     * legal to run, fatal to checkpoint while pending.
     */
    template <typename F>
    void
    scheduleAt(Tick when, const ckpt::EventDesc &desc, F &&fn)
    {
        gs_assert(when >= curTick,
                  "event scheduled in the past: ", when, " < ", curTick);
        insert(when, nextSeq++, desc, std::forward<F>(fn));
        pendingCnt += 1;
        if (pendingCnt > peak)
            peak = pendingCnt;
    }

    /** Schedule @p fn @p delay ticks from now. */
    template <typename F>
    void
    schedule(Tick delay, F &&fn)
    {
        scheduleAt(curTick + delay, ckpt::EventDesc{},
                   std::forward<F>(fn));
    }

    /** Schedule @p fn @p delay ticks from now, snapshot-tagged. */
    template <typename F>
    void
    schedule(Tick delay, const ckpt::EventDesc &desc, F &&fn)
    {
        scheduleAt(curTick + delay, desc, std::forward<F>(fn));
    }

    /**
     * Schedule a cross-domain event merged in at a parallel-epoch
     * barrier. Merged events take sequence numbers below
     * localSeqBase, so at equal @p when they fire before every
     * locally scheduled event — the serial engine's order for
     * arrivals and credits. Callers must present merged events in
     * their canonical (when, src-domain, src-seq) order; this queue
     * preserves that order among them.
     */
    template <typename F>
    void
    scheduleMergedAt(Tick when, F &&fn)
    {
        scheduleMergedAt(when, ckpt::EventDesc{}, std::forward<F>(fn));
    }

    /** Merged-band scheduling, snapshot-tagged (see scheduleAt). */
    template <typename F>
    void
    scheduleMergedAt(Tick when, const ckpt::EventDesc &desc, F &&fn)
    {
        gs_assert(when >= curTick,
                  "merged event scheduled in the past: ", when, " < ",
                  curTick);
        insert(when, nextMergedSeq++, desc, std::forward<F>(fn));
        pendingCnt += 1;
        if (pendingCnt > peak)
            peak = pendingCnt;
    }

    /**
     * Fire the single earliest event.
     * @retval false if the queue was empty.
     */
    bool
    step()
    {
        if (!ensureCurrent())
            return false;
        fireHead();
        return true;
    }

    /**
     * Run until the queue drains or time exceeds @p limit.
     * @return the tick at which execution stopped.
     */
    Tick
    runUntil(Tick limit = maxTick)
    {
        while (ensureCurrent()) {
            Bucket &b = *curb;
            if (b.entries[b.head].when > limit)
                break;
            fireHead();
        }
        if (curTick < limit && limit != maxTick)
            curTick = limit;
        return curTick;
    }

    /** Run for @p duration ticks past the current time. */
    Tick runFor(Tick duration) { return runUntil(curTick + duration); }

    /**
     * Fire every event strictly before @p limit. Unlike runUntil,
     * now() is left at the last fired event — not advanced to the
     * limit — so a parallel domain's clock after an epoch matches
     * what the serial engine would show after the same events.
     * @return the number of events fired.
     */
    std::size_t
    drainWindow(Tick limit)
    {
        drainLimit_ = limit;
        std::size_t n = 0;
        while (ensureCurrent()) {
            Bucket &b = *curb;
            if (b.entries[b.head].when >= drainLimit_)
                break;
            fireHead();
            n += 1;
        }
        return n;
    }

    /**
     * Shrink the limit of the drainWindow() call currently executing
     * on this queue to @p t (no-op if the window already ends at or
     * before @p t). Callable from inside a firing event: the parallel
     * engine's adaptive-lookahead protocol cuts a widened window
     * short at now()+1 when an injection breaks fabric quiescence, so
     * same-tick events still fire but nothing later does until the
     * barrier re-derives a safe window (see docs/PARALLEL.md).
     */
    void
    truncateDrain(Tick t)
    {
        if (t < drainLimit_)
            drainLimit_ = t;
    }

    /**
     * Time of the earliest pending event without firing it, or
     * maxTick when nothing is pending. Positions the calendar window
     * (same cost class as step()).
     */
    Tick
    peekNext()
    {
        if (!ensureCurrent())
            return maxTick;
        return curb->entries[curb->head].when;
    }

    /**
     * Advance now() to @p t (>= now) without firing anything.
     * Precondition: no pending event is earlier than @p t. The
     * parallel engine uses this to align domain clocks at epoch
     * barriers and at the end of a run.
     */
    void
    syncTime(Tick t)
    {
        gs_assert(t >= curTick, "syncTime into the past: ", t, " < ",
                  curTick);
        curTick = t;
    }

    /** Drop all pending events (used between experiment phases). */
    void
    clear()
    {
        for (auto &b : buckets) {
            b.entries.destroyAll();
            b.head = 0;
            b.sorted = false;
        }
        heap.clear();
        ringCount = 0;
        pendingCnt = 0;
        // Re-anchor the ring at zero: leaving base/cur at the old
        // epoch would let the next insert land relative to a stale
        // window. (Today every post-clear insert takes the
        // empty-queue re-anchor path in insert(), but that is an
        // invariant of the current code shape, not of the API —
        // clear() must leave the queue indistinguishable from a
        // fresh one, pending-state-wise.)
        base = 0;
        cur = 0;
        curb = &buckets[0];
    }

    /**
     * Pre-size every ring bucket to hold @p perBucket entries.
     *
     * Bucket storage grows on first touch and then persists, but the
     * tick grid and the bucket ring have co-prime periods, so a
     * sparse workload can keep first-touching fresh buckets many
     * ring laps into a run. A queue whose steady state must be
     * allocation-free — every parallel-engine domain queue — calls
     * this once at construction instead (8 * 128-byte entries per
     * bucket = 1 MiB per queue; serial contexts skip it).
     */
    void
    prewarm(std::size_t perBucket = 8)
    {
        for (auto &b : buckets)
            b.entries.reserve(perBucket);
    }

    /** @name Checkpoint/restore (docs/CHECKPOINT.md)
     *
     * A snapshot of the queue is its clock, its counters, and every
     * pending (when, seq, desc) triple; callbacks are rebuilt from
     * the descs at restore. Restoring re-inserts entries with their
     * original sequence numbers, so the continuation fires in
     * exactly the order the uninterrupted run would have used. The
     * calendar window's base rides along: which pending events sit
     * in the ring and which in the overflow heap is a function of
     * it, so a restored queue reports the same eq.buckets and
     * eq.overflow as the queue that was saved.
     */
    /// @{

    /** Clock and counters restored alongside the pending entries. */
    struct CkptState
    {
        Tick now = 0;
        std::uint64_t nextSeq = localSeqBase;
        std::uint64_t nextMergedSeq = 0;
        std::uint64_t fired = 0;
        std::uint64_t peak = 0;
        std::uint64_t migrated = 0;
        Tick base = 0; ///< calendar window start
    };

    CkptState
    ckptState() const
    {
        return {curTick, nextSeq, nextMergedSeq, fired,
                peak,    migrated, base};
    }

    /**
     * Invoke @p visit(when, seq, desc) for every pending event, in
     * unspecified order (checkpoint writers sort by (when, seq)).
     */
    template <typename V>
    void
    visitPending(V &&visit) const
    {
        for (const auto &b : buckets) {
            for (std::size_t i = b.head; i < b.entries.size(); ++i) {
                const Entry &e = b.entries[i];
                visit(e.when, e.seq, e.desc);
            }
        }
        for (const auto &e : heap)
            visit(e.when, e.seq, e.desc);
    }

    /**
     * Drop all pending events and reset clock and counters to
     * @p st — the restore entry point. Unlike syncTime, the clock
     * may move backward (watchdog rollback rewinds time).
     */
    void
    restoreBegin(const CkptState &st)
    {
        clear();
        curTick = st.now;
        nextSeq = st.nextSeq;
        nextMergedSeq = st.nextMergedSeq;
        fired = st.fired;
        peak = static_cast<std::size_t>(st.peak);
        migrated = st.migrated;
        base = bucketBase(st.base);
        cur = bucketIndex(base);
        curb = &buckets[cur];
    }

    /**
     * Re-insert one snapshotted event with its original sequence
     * number (either band). Counters are untouched: peak and the
     * band cursors came back via restoreBegin.
     */
    void
    insertRestored(Tick when, std::uint64_t seq,
                   const ckpt::EventDesc &desc, EventFn fn)
    {
        gs_assert(when >= curTick,
                  "restored event in the past: ", when, " < ", curTick);
        // Place against the restored window (insert() would re-anchor
        // it at the first event); ensureCurrent sorts the buckets.
        if (when < base)
            rewindTo(when);
        if (when < base + horizon) {
            Bucket &b = buckets[bucketIndex(when)];
            b.entries.emplace_back(when, seq, desc, std::move(fn));
            b.sorted = false;
            ringCount += 1;
        } else {
            heap.emplace_back(when, seq, desc, std::move(fn));
            std::push_heap(heap.begin(), heap.end(), std::greater<>{});
        }
        pendingCnt += 1;
    }
    /// @}

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        EventFn fn;
        // Fills sizeof(Entry) to a power of two so every
        // vector<Entry>::size() on the hot path is a shift instead
        // of a multiply by a magic reciprocal. The filler is the
        // event's checkpoint descriptor — describing every event for
        // snapshots costs the hot path no extra stride.
        ckpt::EventDesc desc;

        template <typename F,
                  typename = std::enable_if_t<
                      !std::is_same_v<std::decay_t<F>, Entry>>>
        Entry(Tick w, std::uint64_t s, const ckpt::EventDesc &d, F &&f)
            : when(w), seq(s), fn(std::forward<F>(f)), desc(d)
        {}

        Entry(Entry &&o) noexcept
            : when(o.when), seq(o.seq), fn(std::move(o.fn)),
              desc(o.desc)
        {}

        Entry &
        operator=(Entry &&o) noexcept
        {
            when = o.when;
            seq = o.seq;
            fn = std::move(o.fn);
            desc = o.desc;
            return *this;
        }

        bool
        operator>(const Entry &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };
    static_assert(sizeof(Entry) == 128, "hot-path stride");

    /**
     * Grow-only storage for a bucket's entries.
     *
     * A pared-down vector with one extra verb std::vector cannot
     * express: truncateHusks(), which drops every element without
     * running destructors. When a bucket drains, all its entries are
     * moved-from husks whose InlineFn destructors are no-ops by
     * construction (fireHead relocates the callable out before
     * invoking it), so the per-element destructor walk std::vector
     * would do on clear() is pure overhead on the fire path. Elements
     * that may still be live (queue clear()/rewind/destruction) go
     * through destroyAll() instead. Capacity is retained across
     * truncation so warm buckets never re-allocate.
     */
    class EntryVec
    {
      public:
        EntryVec() = default;
        EntryVec(const EntryVec &) = delete;
        EntryVec &operator=(const EntryVec &) = delete;

        // Plain (unaligned) operator new suffices — and keeps these
        // allocations visible to tests that override it globally.
        static_assert(alignof(Entry) <= alignof(std::max_align_t),
                      "Entry must not be over-aligned");

        ~EntryVec()
        {
            destroyAll();
            ::operator delete(data_);
        }

        std::size_t size() const { return size_; }
        std::size_t capacity() const { return cap_; }
        bool empty() const { return size_ == 0; }
        Entry &operator[](std::size_t i) { return data_[i]; }
        const Entry &operator[](std::size_t i) const { return data_[i]; }
        Entry &back() { return data_[size_ - 1]; }
        Entry *begin() { return data_; }
        Entry *end() { return data_ + size_; }

        template <typename... Args>
        void
        emplace_back(Args &&...args)
        {
            if (size_ == cap_) [[unlikely]]
                grow();
            ::new (static_cast<void *>(data_ + size_))
                Entry(std::forward<Args>(args)...);
            size_ += 1;
        }

        /** Insert before @p pos, shifting the tail up one slot. */
        template <typename... Args>
        void
        emplace(Entry *pos, Args &&...args)
        {
            std::size_t at = static_cast<std::size_t>(pos - data_);
            if (size_ == cap_) [[unlikely]]
                grow();
            for (std::size_t i = size_; i > at; --i) {
                ::new (static_cast<void *>(data_ + i))
                    Entry(std::move(data_[i - 1]));
                data_[i - 1].~Entry();
            }
            ::new (static_cast<void *>(data_ + at))
                Entry(std::forward<Args>(args)...);
            size_ += 1;
        }

        /** Drop all elements, destructor-free. Precondition: every
         *  element is a vacated husk (no-op destructor). */
        void truncateHusks() { size_ = 0; }

        /**
         * Drop the first @p n elements, destructor-free, sliding the
         * rest down in order. Precondition: those @p n are vacated
         * husks; the slots left behind at the end become husks too.
         */
        void
        dropHusks(std::size_t n)
        {
            for (std::size_t i = n; i < size_; ++i)
                data_[i - n] = std::move(data_[i]);
            size_ -= n;
        }

        /** Grow capacity to at least @p n without adding elements. */
        void
        reserve(std::size_t n)
        {
            while (cap_ < n)
                grow();
        }

        /** Drop all elements, running destructors (live entries). */
        void
        destroyAll()
        {
            for (std::size_t i = 0; i < size_; ++i)
                data_[i].~Entry();
            size_ = 0;
        }

      private:
        void
        grow()
        {
            std::size_t ncap = cap_ ? cap_ * 2 : 8;
            auto *nd = static_cast<Entry *>(
                ::operator new(ncap * sizeof(Entry)));
            for (std::size_t i = 0; i < size_; ++i) {
                ::new (static_cast<void *>(nd + i))
                    Entry(std::move(data_[i]));
                data_[i].~Entry();
            }
            ::operator delete(data_);
            data_ = nd;
            cap_ = ncap;
        }

        Entry *data_ = nullptr;
        std::size_t size_ = 0;
        std::size_t cap_ = 0;
    };

    /**
     * One calendar slot. `sorted` is true only while this is the
     * current bucket: future buckets take cheap unordered appends and
     * are sorted once, by (when, seq), when the window reaches them.
     * `head` indexes the next unfired entry of the current bucket
     * (consumed entries stay as moved-from husks until the bucket
     * drains and its storage is recycled).
     */
    struct Bucket
    {
        EntryVec entries;
        std::size_t head = 0;
        bool sorted = false;
    };

    static constexpr std::size_t
    bucketIndex(Tick when)
    {
        return static_cast<std::size_t>(when >> bucketBits) &
               (bucketCount - 1);
    }

    static constexpr Tick
    bucketBase(Tick when)
    {
        return when & ~(bucketWidth - 1);
    }

    template <typename F>
    void
    insert(Tick when, std::uint64_t seq, const ckpt::EventDesc &desc,
           F &&fn)
    {
        if (pendingCnt == 0) {
            // Empty queue: re-anchor the window at the new event so
            // the ubiquitous schedule-then-fire pattern never touches
            // the overflow heap no matter how far curTick drifted.
            // Every bucket is empty here (fireHead clears a bucket
            // the moment it drains), so the event is trivially in
            // order and its bucket — the current one after the
            // re-anchor — takes a straight append.
            Tick nb = bucketBase(when);
            if (nb != base) {
                curb->sorted = false;
                base = nb;
                cur = bucketIndex(when);
                curb = &buckets[cur];
                curb->sorted = true; // empty: trivially sorted
            }
            curb->entries.emplace_back(when, seq, desc,
                                       std::forward<F>(fn));
            ringCount += 1;
            return;
        }
        if (when < base) {
            // A long idle runUntil() re-anchored the window at a
            // far-future event and control returned to the user; a
            // new event now lands before the window. Rare and cold:
            // rebuild the window around the early event.
            rewindTo(when);
        }
        if (when < base + horizon) {
            Bucket &b = buckets[bucketIndex(when)];
            if (&b == curb && b.head != 0 &&
                b.entries.size() == b.entries.capacity()) {
                // The bucket being drained is full, but its fired
                // prefix is dead husks: reclaim those slots instead
                // of growing. Events a firing callback schedules into
                // its own bucket (a router woken at the current edge)
                // would otherwise grow a warm bucket past the
                // capacity its steady state needs.
                b.entries.dropHusks(b.head);
                b.head = 0;
            }
            if (&b == curb && b.sorted &&
                !(b.entries.empty() ||
                  b.entries.back().when < when ||
                  (b.entries.back().when == when &&
                   b.entries.back().seq < seq))) {
                // Out-of-order arrival into the live bucket: a
                // binary-search insert keeps it sorted. The compare
                // is the full (when, seq) order — a merged-band
                // event (scheduleMergedAt) carries a lower seq than
                // same-tick local events already in the bucket, so
                // ordering by `when` alone would misplace it.
                // In-order arrivals (the common case) append below,
                // which also keeps the bucket sorted.
                auto it = std::upper_bound(
                    b.entries.begin() +
                        static_cast<std::ptrdiff_t>(b.head),
                    b.entries.end(),
                    std::pair<Tick, std::uint64_t>{when, seq},
                    [](const std::pair<Tick, std::uint64_t> &k,
                       const Entry &e) {
                        return k.first != e.when ? k.first < e.when
                                                 : k.second < e.seq;
                    });
                b.entries.emplace(it, when, seq, desc,
                                  std::forward<F>(fn));
            } else {
                b.entries.emplace_back(when, seq, desc,
                                       std::forward<F>(fn));
            }
            ringCount += 1;
        } else {
            heap.emplace_back(when, seq, desc, std::forward<F>(fn));
            std::push_heap(heap.begin(), heap.end(), std::greater<>{});
        }
    }

    /**
     * Position the window on the earliest pending event: sort the
     * bucket it lives in if needed, sliding over empty buckets and
     * pulling overflow events that fall into the window as it moves.
     * @retval false when nothing is pending.
     */
    bool
    ensureCurrent()
    {
        for (;;) {
            Bucket &b = *curb;
            if (b.head < b.entries.size()) {
                if (!b.sorted)
                    sortBucket(b);
                return true;
            }
            if (b.head != 0) {
                // Destructor-free: a drained bucket holds only husks.
                // Capacity is kept, so warm buckets stay warm.
                b.entries.truncateHusks();
                b.head = 0;
            }
            if (ringCount == 0) {
                if (heap.empty())
                    return false;
                // Ring dry: jump the window to the heap's earliest
                // event instead of sliding bucket by bucket.
                b.sorted = false;
                Tick w = heap.front().when;
                base = bucketBase(w);
                cur = bucketIndex(w);
                curb = &buckets[cur];
                migrateOverflow();
                continue;
            }
            // Slide one bucket; the vacated slot becomes the far edge
            // of the window and inherits any overflow events there.
            b.sorted = false;
            cur = (cur + 1) & (bucketCount - 1);
            curb = &buckets[cur];
            base += bucketWidth;
            migrateOverflow();
        }
    }

    /** Pull every overflow event inside [base, base + horizon). */
    void
    migrateOverflow()
    {
        const Tick limit = base + horizon;
        while (!heap.empty() && heap.front().when < limit) {
            std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
            Entry &top = heap.back();
            Bucket &b = buckets[bucketIndex(top.when)];
            b.entries.emplace_back(top.when, top.seq, top.desc,
                                   std::move(top.fn));
            b.sorted = false;
            heap.pop_back();
            ringCount += 1;
            migrated += 1;
        }
    }

    /** Rebuild the window around early @p when (cold path; see insert). */
    void
    rewindTo(Tick when)
    {
        for (auto &b : buckets) {
            for (std::size_t i = b.head; i < b.entries.size(); ++i) {
                heap.push_back(std::move(b.entries[i]));
                std::push_heap(heap.begin(), heap.end(),
                               std::greater<>{});
            }
            b.entries.destroyAll();
            b.head = 0;
            b.sorted = false;
        }
        ringCount = 0;
        base = bucketBase(when);
        cur = bucketIndex(when);
        curb = &buckets[cur];
        migrateOverflow();
    }

    static void
    sortBucket(Bucket &b)
    {
        gs_assert(b.head == 0, "sorting a partially drained bucket");
        std::sort(b.entries.begin(), b.entries.end(),
                  [](const Entry &a, const Entry &c) {
                      return a.when != c.when ? a.when < c.when
                                              : a.seq < c.seq;
                  });
        b.sorted = true;
    }

    /** Fire the head of the current bucket (ensureCurrent() == true). */
    void
    fireHead()
    {
        Bucket &b = *curb;
        Entry &slot = b.entries[b.head];
        // The callable is relocated out of the slot before it runs:
        // the callback may append to this bucket and reallocate its
        // storage. Trivially-relocatable callables (the steady-state
        // shape) take the raw-copy thunk path; the rest pay a full
        // InlineFn move.
        alignas(std::max_align_t) unsigned char tmp[EventFn::inlineCapacity];
        const Tick when = slot.when;
        auto pop = [&] {
            b.head += 1;
            if (b.head == b.entries.size()) {
                b.entries.truncateHusks(); // all husks: destructor-free
                b.head = 0;
            }
            ringCount -= 1;
            pendingCnt -= 1;
            curTick = when;
            fired += 1;
        };
        if (EventFn::CallFn thunk = slot.fn.stealTrivial(tmp)) {
            pop();
            thunk(tmp);
        } else {
            EventFn fn = std::move(slot.fn);
            pop();
            fn();
        }
    }

    std::array<Bucket, bucketCount> buckets;
    // Overflow min-heap, kept as a raw vector + std::push_heap /
    // std::pop_heap (same complexity as std::priority_queue) so that
    // checkpointing can iterate the parked entries.
    std::vector<Entry> heap;
    Tick base = 0;        ///< window start (current bucket's range)
    std::size_t cur = 0;  ///< physical index of the current bucket
    Bucket *curb = &buckets[0]; ///< cached &buckets[cur] (hot paths)
    std::size_t ringCount = 0;  ///< unfired events in the ring
    std::size_t pendingCnt = 0; ///< ringCount + heap.size(), cached

    Tick curTick = 0;
    Tick drainLimit_ = 0; ///< live only inside drainWindow()
    std::uint64_t nextSeq = localSeqBase; ///< local scheduling band
    std::uint64_t nextMergedSeq = 0;      ///< barrier-merge band
    std::uint64_t fired = 0;
    std::size_t peak = 0;
    std::uint64_t migrated = 0;
};

} // namespace gs

#endif // GS_SIM_EVENT_QUEUE_HH
