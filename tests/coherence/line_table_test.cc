/** @file LineTable: randomized operations against a std::map oracle,
 *  clusters that wrap past the table end, backward-shift erase,
 *  growth and iteration. */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "coherence/line_table.hh"

namespace
{

using gs::coher::LineTable;
using gs::mem::Addr;
using gs::mem::lineBytes;

/** Value type that counts live instances, to catch leaks and
 *  double destruction across relocations. */
struct Tracked
{
    static inline int live = 0;
    int v = 0;

    Tracked() { live += 1; }
    Tracked(Tracked &&o) noexcept : v(o.v) { live += 1; }
    Tracked &operator=(Tracked &&o) noexcept
    {
        v = o.v;
        return *this;
    }
    ~Tracked() { live -= 1; }
};

std::map<Addr, int>
contents(const LineTable<Tracked> &t)
{
    std::map<Addr, int> seen;
    t.forEach([&](Addr line, const Tracked &val) {
        EXPECT_EQ(seen.count(line), 0u) << "line visited twice";
        seen[line] = val.v;
    });
    return seen;
}

/** Lines homing at @p slot in an initial-capacity table. */
std::vector<Addr>
linesHomingAt(const LineTable<Tracked> &t, std::size_t slot, int n)
{
    std::vector<Addr> out;
    for (Addr idx = 1; static_cast<int>(out.size()) < n; ++idx)
        if (t.homeSlot(idx * lineBytes) == slot)
            out.push_back(idx * lineBytes);
    return out;
}

TEST(LineTable, EmptyTableAllocatesNothing)
{
    LineTable<Tracked> t;
    EXPECT_EQ(t.capacity(), 0u);
    EXPECT_EQ(t.bytes(), 0u);
    EXPECT_EQ(t.find(64), nullptr);
    EXPECT_FALSE(t.erase(64));
    t[64].v = 1;
    EXPECT_EQ(t.capacity(), LineTable<Tracked>::initialCapacity);
}

TEST(LineTable, RandomOpsMatchMapOracle)
{
    std::mt19937_64 rng(7);
    // A small universe so inserts hit existing keys and erases hit
    // live ones: runs of consecutive lines (the streaming case the
    // blocked hash is for) in a few node regions, plus scattered
    // lines.
    std::vector<Addr> universe;
    for (Addr region = 0; region < 3; ++region)
        for (Addr k = 0; k < 96; ++k)
            universe.push_back((region << 36) + (1000 + k) * lineBytes);
    for (int i = 0; i < 96; ++i)
        universe.push_back((rng() >> 8) & ~(lineBytes - 1));

    {
        LineTable<Tracked> t;
        std::map<Addr, int> oracle;
        for (int op = 0; op < 20000; ++op) {
            const Addr line = universe[rng() % universe.size()];
            // Bias towards inserts early, erases late, so the table
            // grows, fills and drains.
            const bool insert = (rng() % 20000) >= std::size_t(op);
            if (insert) {
                const int v = static_cast<int>(rng() % 1000);
                t[line].v = v;
                oracle[line] = v;
            } else {
                EXPECT_EQ(t.erase(line), oracle.erase(line) == 1);
            }
            ASSERT_EQ(t.size(), oracle.size());
            ASSERT_GE(t.capacity(), 2 * t.size());
            if (op % 500 == 0) {
                for (Addr l : universe) {
                    const Tracked *e = t.find(l);
                    auto it = oracle.find(l);
                    ASSERT_EQ(e != nullptr, it != oracle.end());
                    if (e) {
                        EXPECT_EQ(e->v, it->second);
                    }
                }
                EXPECT_EQ(contents(t), oracle);
            }
        }
        EXPECT_EQ(contents(t), oracle);
        EXPECT_EQ(Tracked::live, static_cast<int>(oracle.size()));
    }
    EXPECT_EQ(Tracked::live, 0);
}

TEST(LineTable, ClusterWrapsPastTheEndAndShiftsBackAcrossIt)
{
    LineTable<Tracked> t;
    t[lineBytes]; // allocate the initial slots
    t.erase(lineBytes);
    const std::size_t last = t.capacity() - 1;

    // Three lines homing at the last slot fill it and wrap to 0, 1.
    const std::vector<Addr> wrap = linesHomingAt(t, last, 3);
    for (std::size_t i = 0; i < wrap.size(); ++i)
        t[wrap[i]].v = static_cast<int>(i);
    EXPECT_EQ(t.slotOf(wrap[0]), last);
    EXPECT_EQ(t.slotOf(wrap[1]), 0u);
    EXPECT_EQ(t.slotOf(wrap[2]), 1u);

    // Erasing the head pulls the rest back across the wrap.
    EXPECT_TRUE(t.erase(wrap[0]));
    EXPECT_EQ(t.slotOf(wrap[1]), last);
    EXPECT_EQ(t.slotOf(wrap[2]), 0u);
    EXPECT_EQ(t.find(wrap[1])->v, 1);
    EXPECT_EQ(t.find(wrap[2])->v, 2);
    EXPECT_EQ(t.find(wrap[0]), nullptr);
    EXPECT_EQ(t.capacity(), last + 1);
}

TEST(LineTable, BackwardShiftLeavesEntriesAtTheirHome)
{
    LineTable<Tracked> t;
    t[lineBytes];
    t.erase(lineBytes);
    const std::size_t last = t.capacity() - 1;

    // before sits at last - 1; a and b home at `last`, b wraps to 0.
    const Addr before = linesHomingAt(t, last - 1, 1)[0];
    const std::vector<Addr> ab = linesHomingAt(t, last, 2);
    t[before].v = 10;
    t[ab[0]].v = 11;
    t[ab[1]].v = 12;
    ASSERT_EQ(t.slotOf(ab[1]), 0u);

    // Nothing may move into the hole ahead of its home slot.
    EXPECT_TRUE(t.erase(before));
    EXPECT_EQ(t.slotOf(ab[0]), last);
    EXPECT_EQ(t.slotOf(ab[1]), 0u);
    EXPECT_EQ(t.find(ab[1])->v, 12);
    EXPECT_EQ(t.size(), 2u);
}

TEST(LineTable, GrowthKeepsEveryEntry)
{
    {
        LineTable<Tracked> t;
        std::map<Addr, int> oracle;
        std::size_t lastCap = 0;
        int doublings = 0;
        for (int i = 0; i < 3000; ++i) {
            // Alternate a streaming run with a far-away line.
            const Addr line = i % 2 ? (Addr(i) << 20) * lineBytes
                                    : Addr(5000 + i) * lineBytes;
            t[line].v = i;
            oracle[line] = i;
            if (t.capacity() != lastCap) {
                if (lastCap != 0) {
                    EXPECT_EQ(t.capacity(), 2 * lastCap);
                    doublings += 1;
                }
                lastCap = t.capacity();
            }
        }
        EXPECT_GE(doublings, 9);
        // bytes() counts every slot, occupied or free.
        EXPECT_EQ(t.bytes() % t.capacity(), 0u);
        EXPECT_GE(t.bytes() / t.capacity(), sizeof(Addr) + sizeof(Tracked));
        EXPECT_EQ(contents(t), oracle);
        EXPECT_EQ(Tracked::live, 3000);
        t.clear();
        EXPECT_EQ(Tracked::live, 0);
        EXPECT_TRUE(t.empty());
        EXPECT_EQ(t.capacity(), lastCap);
    }
    EXPECT_EQ(Tracked::live, 0);
}

TEST(LineTable, NeighbouringLinesHomeInNeighbouringSlots)
{
    LineTable<Tracked> t;
    for (int i = 0; i < 1000; ++i)
        t[Addr(i) * lineBytes];
    // An aligned block of eight lines occupies eight consecutive
    // home slots.
    for (Addr block : {Addr(8), Addr(512), Addr(7000)}) {
        const std::size_t first = t.homeSlot(block * lineBytes);
        for (Addr k = 1; k < 8; ++k)
            EXPECT_EQ(t.homeSlot((block + k) * lineBytes), first + k);
    }
}

} // namespace
