/** @file Directed coherence-protocol scenarios: fills, sharing,
 *  invalidation, forwarding (read-dirty), victims and races. */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>

#include "coherence/checker.hh"
#include "coherence/node.hh"
#include "net/network.hh"
#include "topology/torus.hh"

namespace
{

using namespace gs;
using namespace gs::coher;
using mem::LineState;

/** A 4-node GS1280-like coherent system. */
struct CoherFixture
{
    explicit CoherFixture(int w = 2, int h = 2, NodeConfig cfg = {})
        : topo(w, h), net(ctx, topo, net::NetworkParams::gs1280())
    {
        for (NodeId n = 0; n < topo.numNodes(); ++n) {
            nodes.push_back(std::make_unique<CoherentNode>(
                ctx, net, n, map, cfg));
        }
    }

    /** Blocking access helper: run until the access completes. */
    void
    access(NodeId node, mem::Addr a, bool write)
    {
        bool done = false;
        nodes[std::size_t(node)]->memAccess(a, write,
                                            [&] { done = true; });
        ctx.queue().runUntil(ctx.now() + 50 * tickUs);
        ASSERT_TRUE(done) << "access did not complete";
    }

    void
    drain()
    {
        ctx.queue().runUntil(ctx.now() + 100 * tickUs);
    }

    std::vector<CoherentNode *>
    all()
    {
        std::vector<CoherentNode *> v;
        for (auto &n : nodes)
            v.push_back(n.get());
        return v;
    }

    SimContext ctx;
    topo::Torus2D topo;
    mem::NodeOwnedMap map;
    net::Network net;
    std::vector<std::unique_ptr<CoherentNode>> nodes;
};

mem::Addr
lineAt(NodeId home, std::uint64_t k)
{
    return mem::regionBase(home) + k * mem::lineBytes;
}

TEST(Protocol, ColdReadFillsExclusive)
{
    CoherFixture f;
    mem::Addr a = lineAt(1, 0);
    f.access(0, a, false);
    EXPECT_EQ(f.nodes[0]->l2().state(a), LineState::Exclusive);
    EXPECT_EQ(f.nodes[1]->dirState(a), DirState::Exclusive);
    EXPECT_EQ(f.nodes[1]->dirOwner(a), 0);
    EXPECT_TRUE(verifyCoherence(f.all()).ok);
}

TEST(Protocol, ColdWriteFillsModified)
{
    CoherFixture f;
    mem::Addr a = lineAt(1, 1);
    f.access(0, a, true);
    EXPECT_EQ(f.nodes[0]->l2().state(a), LineState::Modified);
    EXPECT_EQ(f.nodes[1]->dirState(a), DirState::Exclusive);
    EXPECT_TRUE(verifyCoherence(f.all()).ok);
}

TEST(Protocol, LocalAccessStaysLocal)
{
    CoherFixture f;
    mem::Addr a = lineAt(0, 2);
    f.access(0, a, false);
    EXPECT_EQ(f.nodes[0]->l2().state(a), LineState::Exclusive);
    // No network hop was needed (loopback path).
    EXPECT_EQ(f.net.stats().hopsPerPacket.max(), 0.0);
}

TEST(Protocol, SecondReaderTriggersReadDirtyForward)
{
    CoherFixture f;
    mem::Addr a = lineAt(2, 3);
    f.access(0, a, true); // node 0 owns dirty
    f.access(1, a, false); // node 1 reads: 3-hop forward
    EXPECT_EQ(f.nodes[0]->l2().state(a), LineState::Shared);
    EXPECT_EQ(f.nodes[1]->l2().state(a), LineState::Shared);
    EXPECT_EQ(f.nodes[2]->dirState(a), DirState::Shared);
    EXPECT_EQ(f.nodes[0]->stats().forwardsServed, 1u);
    std::uint64_t sharers = f.nodes[2]->dirSharers(a);
    EXPECT_EQ(sharers, 0b11u);
    EXPECT_TRUE(verifyCoherence(f.all()).ok);
}

TEST(Protocol, ReadOfCleanExclusiveDowngrades)
{
    CoherFixture f;
    mem::Addr a = lineAt(2, 4);
    f.access(0, a, false); // node 0 owns clean (E)
    f.access(1, a, false);
    EXPECT_EQ(f.nodes[0]->l2().state(a), LineState::Shared);
    EXPECT_EQ(f.nodes[1]->l2().state(a), LineState::Shared);
    EXPECT_TRUE(verifyCoherence(f.all()).ok);
}

TEST(Protocol, WriteInvalidatesAllSharers)
{
    CoherFixture f;
    mem::Addr a = lineAt(3, 5);
    f.access(0, a, false);
    f.access(1, a, false);
    f.access(2, a, false); // three sharers
    f.access(1, a, true); // node 1 upgrades
    f.drain();
    EXPECT_EQ(f.nodes[1]->l2().state(a), LineState::Modified);
    EXPECT_EQ(f.nodes[0]->l2().state(a), LineState::Invalid);
    EXPECT_EQ(f.nodes[2]->l2().state(a), LineState::Invalid);
    EXPECT_EQ(f.nodes[3]->dirState(a), DirState::Exclusive);
    EXPECT_EQ(f.nodes[3]->dirOwner(a), 1);
    EXPECT_TRUE(verifyCoherence(f.all()).ok);
}

TEST(Protocol, WriteToOwnedLineForwardsOwnership)
{
    CoherFixture f;
    mem::Addr a = lineAt(3, 6);
    f.access(0, a, true); // node 0 dirty owner
    f.access(2, a, true); // node 2 takes ownership via FwdRdMod
    f.drain();
    EXPECT_EQ(f.nodes[0]->l2().state(a), LineState::Invalid);
    EXPECT_EQ(f.nodes[2]->l2().state(a), LineState::Modified);
    EXPECT_EQ(f.nodes[3]->dirOwner(a), 2);
    EXPECT_TRUE(verifyCoherence(f.all()).ok);
}

TEST(Protocol, PingPongOwnership)
{
    CoherFixture f;
    mem::Addr a = lineAt(1, 7);
    for (int round = 0; round < 6; ++round) {
        NodeId writer = round % 2 == 0 ? 0 : 2;
        f.access(writer, a, true);
    }
    f.drain();
    // The last writer (round 5) was node 2.
    EXPECT_EQ(f.nodes[0]->l2().state(a), LineState::Invalid);
    EXPECT_EQ(f.nodes[2]->l2().state(a), LineState::Modified);
    EXPECT_TRUE(verifyCoherence(f.all()).ok);
}

TEST(Protocol, EvictionWritesBackAndInvalidatesDirectory)
{
    // A tiny cache forces evictions quickly.
    NodeConfig cfg;
    cfg.l2.sizeBytes = 4 * mem::lineBytes;
    cfg.l2.ways = 1;
    CoherFixture f(2, 2, cfg);

    // Write lines that map to the same set: 4-set direct-mapped, so
    // stride of 4 lines conflicts.
    mem::Addr a = lineAt(1, 0);
    mem::Addr b = lineAt(1, 4);
    f.access(0, a, true);
    f.access(0, b, true); // evicts a (dirty): VictimWB
    f.drain();
    EXPECT_EQ(f.nodes[0]->l2().state(a), LineState::Invalid);
    EXPECT_EQ(f.nodes[1]->dirState(a), DirState::Invalid);
    EXPECT_EQ(f.nodes[1]->dirState(b), DirState::Exclusive);
    EXPECT_EQ(f.nodes[0]->victimBufferFill(), 0); // acked and freed
    EXPECT_GE(f.nodes[0]->stats().victimsSent, 1u);
    EXPECT_TRUE(verifyCoherence(f.all()).ok);
}

TEST(Protocol, CleanEvictionNotifiesDirectory)
{
    NodeConfig cfg;
    cfg.l2.sizeBytes = 4 * mem::lineBytes;
    cfg.l2.ways = 1;
    CoherFixture f(2, 2, cfg);

    mem::Addr a = lineAt(1, 0);
    mem::Addr b = lineAt(1, 4);
    f.access(0, a, false); // clean exclusive
    f.access(0, b, false); // evicts a: VictimClean
    f.drain();
    EXPECT_EQ(f.nodes[1]->dirState(a), DirState::Invalid);
    EXPECT_TRUE(verifyCoherence(f.all()).ok);
}

TEST(Protocol, ReacquireAfterEviction)
{
    NodeConfig cfg;
    cfg.l2.sizeBytes = 4 * mem::lineBytes;
    cfg.l2.ways = 1;
    CoherFixture f(2, 2, cfg);

    mem::Addr a = lineAt(1, 0);
    mem::Addr b = lineAt(1, 4);
    f.access(0, a, true);
    f.access(0, b, true); // evict a
    f.access(0, a, true); // re-acquire while victim may be in flight
    f.drain();
    EXPECT_EQ(f.nodes[0]->l2().state(a), LineState::Modified);
    EXPECT_EQ(f.nodes[1]->dirOwner(a), 0);
    EXPECT_TRUE(verifyCoherence(f.all()).ok);
}

TEST(Protocol, ReadMergesIntoOutstandingMiss)
{
    CoherFixture f;
    mem::Addr a = lineAt(1, 9);
    int done = 0;
    f.nodes[0]->memAccess(a, false, [&] { done += 1; });
    f.nodes[0]->memAccess(a + 8, false, [&] { done += 1; });
    f.nodes[0]->memAccess(a + 16, false, [&] { done += 1; });
    f.drain();
    EXPECT_EQ(done, 3);
    EXPECT_EQ(f.nodes[0]->stats().mafMerges, 2u);
    // Only one request reached the home.
    EXPECT_EQ(f.nodes[1]->stats().homeRequests, 1u);
}

TEST(Protocol, WriteAfterReadMissRetries)
{
    CoherFixture f;
    mem::Addr a = lineAt(1, 10);
    int done = 0;
    f.nodes[0]->memAccess(a, false, [&] { done += 1; });
    f.nodes[0]->memAccess(a, true, [&] { done += 1; });
    f.drain();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(f.nodes[0]->l2().state(a), LineState::Modified);
    EXPECT_TRUE(verifyCoherence(f.all()).ok);
}

TEST(Protocol, ConcurrentWritersSerializeAtHome)
{
    CoherFixture f;
    mem::Addr a = lineAt(3, 11);
    int done = 0;
    for (NodeId n : {0, 1, 2})
        f.nodes[std::size_t(n)]->memAccess(a, true,
                                           [&] { done += 1; });
    f.drain();
    EXPECT_EQ(done, 3);
    // Exactly one final owner.
    int owners = 0;
    for (NodeId n : {0, 1, 2})
        owners += f.nodes[std::size_t(n)]->l2().state(a) ==
                  LineState::Modified;
    EXPECT_EQ(owners, 1);
    EXPECT_TRUE(verifyCoherence(f.all()).ok);
}

TEST(Protocol, MafLimitQueuesCoreAccesses)
{
    NodeConfig cfg;
    cfg.mafEntries = 2;
    CoherFixture f(2, 2, cfg);
    int done = 0;
    for (int i = 0; i < 8; ++i)
        f.nodes[0]->memAccess(lineAt(1, 20 + i), false,
                              [&] { done += 1; });
    EXPECT_LE(f.nodes[0]->outstandingMisses(), 2);
    f.drain();
    EXPECT_EQ(done, 8);
}

TEST(Protocol, SharerCountGrowsAndCollapses)
{
    CoherFixture f;
    mem::Addr a = lineAt(0, 12);
    for (NodeId n : {1, 2, 3})
        f.access(n, a, false);
    EXPECT_EQ(f.nodes[0]->dirState(a), DirState::Shared);
    f.access(0, a, true);
    f.drain();
    EXPECT_EQ(f.nodes[0]->dirState(a), DirState::Exclusive);
    EXPECT_EQ(f.nodes[0]->dirOwner(a), 0);
    for (NodeId n : {1, 2, 3})
        EXPECT_EQ(f.nodes[std::size_t(n)]->l2().state(a),
                  LineState::Invalid);
    EXPECT_TRUE(verifyCoherence(f.all()).ok);
}

TEST(Protocol, StatsCountTheStory)
{
    CoherFixture f;
    mem::Addr a = lineAt(1, 13);
    f.access(0, a, false);
    f.access(0, a, false); // L2 hit
    const auto &st = f.nodes[0]->stats();
    EXPECT_EQ(st.accesses, 2u);
    EXPECT_EQ(st.l2Hits, 1u);
    EXPECT_EQ(st.misses, 1u);
    EXPECT_GT(st.missLatencyNs.mean(), 0.0);
}

TEST(Protocol, CoarseSharerVectorInvalidatesWholeGroups)
{
    // Sharer groups of 2 on a 4x2 machine: nodes {2k, 2k+1} share a
    // directory bit. A write must still invalidate every cached
    // copy — over-invalidation of group members is allowed, stale
    // copies are not.
    NodeConfig cfg;
    cfg.sharerGroupSize = 2;
    CoherFixture f(4, 2, cfg);
    mem::Addr a = lineAt(0, 14);
    EXPECT_EQ(f.nodes[0]->sharerBitOf(2), f.nodes[0]->sharerBitOf(3));
    EXPECT_NE(f.nodes[0]->sharerBitOf(2), f.nodes[0]->sharerBitOf(4));

    for (NodeId n : {2, 3, 5})
        f.access(n, a, false);
    EXPECT_EQ(f.nodes[0]->dirState(a), DirState::Shared);
    f.access(7, a, true);
    f.drain();
    EXPECT_EQ(f.nodes[0]->dirState(a), DirState::Exclusive);
    EXPECT_EQ(f.nodes[0]->dirOwner(a), 7);
    for (NodeId n : {2, 3, 5})
        EXPECT_EQ(f.nodes[std::size_t(n)]->l2().state(a),
                  LineState::Invalid);
    EXPECT_TRUE(verifyCoherence(f.all()).ok);
}

TEST(Protocol, CoarseWriterGroupmateStillInvalidated)
{
    // The writer shares a group bit with a current sharer: skipping
    // the writer at emission must not skip its groupmate.
    NodeConfig cfg;
    cfg.sharerGroupSize = 2;
    CoherFixture f(4, 2, cfg);
    mem::Addr a = lineAt(0, 15);
    for (NodeId n : {2, 3})
        f.access(n, a, false);
    f.access(2, a, true); // node 2 upgrades; groupmate 3 must drop
    f.drain();
    EXPECT_EQ(f.nodes[0]->dirOwner(a), 2);
    EXPECT_EQ(f.nodes[2]->l2().state(a), LineState::Modified);
    EXPECT_EQ(f.nodes[3]->l2().state(a), LineState::Invalid);
    EXPECT_TRUE(verifyCoherence(f.all()).ok);
}

TEST(Protocol, BusyHomeIsNeverQuiesced)
{
    // quiesced() reads a busy-line counter instead of walking the
    // directory. Two Busy windows must both hold the home
    // unquiesced: a RdModReq forwarded to a third-party owner (the
    // longest one; it also has a side-table record) and a cold read
    // waiting on the Zbox (the counter is the only trace of it).
    CoherFixture f;
    const mem::Addr owned = lineAt(2, 16);
    const mem::Addr cold = lineAt(2, 17);
    f.access(0, owned, true); // node 0 owns dirty
    f.drain();
    ASSERT_TRUE(f.nodes[2]->quiesced());

    auto runWatchingHome = [&](mem::Addr a) {
        int busySteps = 0;
        const Tick limit = f.ctx.now() + 100 * tickUs;
        while (f.ctx.now() < limit && f.ctx.queue().step()) {
            if (f.nodes[2]->dirState(a) == DirState::Busy) {
                busySteps += 1;
                EXPECT_FALSE(f.nodes[2]->quiesced());
            }
        }
        return busySteps;
    };

    bool done = false;
    f.nodes[1]->memAccess(owned, true, [&] { done = true; });
    EXPECT_GT(runWatchingHome(owned), 0) << "the home never went Busy";
    EXPECT_TRUE(done);
    EXPECT_EQ(f.nodes[0]->stats().forwardsServed, 1u);
    for (CoherentNode *n : f.all())
        EXPECT_TRUE(n->quiesced()) << "node " << n->id();
    EXPECT_EQ(f.nodes[2]->dirState(owned), DirState::Exclusive);
    EXPECT_EQ(f.nodes[2]->dirOwner(owned), 1);

    done = false;
    f.nodes[3]->memAccess(cold, false, [&] { done = true; });
    EXPECT_GT(runWatchingHome(cold), 0) << "the home never went Busy";
    EXPECT_TRUE(done);
    for (CoherentNode *n : f.all())
        EXPECT_TRUE(n->quiesced()) << "node " << n->id();
    EXPECT_TRUE(verifyCoherence(f.all()).ok);
}

TEST(Protocol, OwnerReRequestBehindItsVictimIsNeverQuiesced)
{
    // An owner that evicts a line and re-requests it before its
    // victim lands has the request parked in the home's dirTxns while
    // the line stays Exclusive, not Busy. The busy-line counter sees
    // nothing then; only the side-table clause of quiesced() holds
    // the home unquiesced.
    NodeConfig cfg;
    cfg.l2.sizeBytes = 4 * mem::lineBytes;
    cfg.l2.ways = 1;
    CoherFixture f(2, 2, cfg);
    const mem::Addr a = lineAt(1, 0);
    const mem::Addr b = lineAt(1, 4); // same set: evicts a
    f.access(0, a, true);
    f.drain();

    // Step until the eviction puts a in node 0's victim buffer, then
    // re-request a at once.
    bool evicted = false;
    f.nodes[0]->memAccess(b, true, [&] { evicted = true; });
    while (f.nodes[0]->victimBufferFill() == 0 && f.ctx.queue().step()) {
    }
    ASSERT_EQ(f.nodes[0]->victimBufferFill(), 1);
    bool done = false;
    f.nodes[0]->memAccess(a, true, [&] { done = true; });

    const CoherentNode &home = *f.nodes[1];
    auto recv = [&home](MsgType t) {
        return home.stats().msgRecv[static_cast<std::size_t>(t)];
    };
    const std::uint64_t reqs0 = recv(MsgType::RdModReq);
    const std::uint64_t victims0 = recv(MsgType::VictimWB);
    int parkedSteps = 0;
    const Tick limit = f.ctx.now() + 100 * tickUs;
    while (f.ctx.now() < limit && f.ctx.queue().step()) {
        const bool parked = recv(MsgType::RdModReq) > reqs0 &&
                            recv(MsgType::VictimWB) == victims0 &&
                            home.dirState(a) == DirState::Exclusive;
        if (parked) {
            parkedSteps += 1;
            EXPECT_FALSE(home.quiesced());
        }
    }
    EXPECT_GT(parkedSteps, 0)
        << "the re-request never waited behind its victim";
    EXPECT_TRUE(evicted);
    EXPECT_TRUE(done);
    for (CoherentNode *n : f.all())
        EXPECT_TRUE(n->quiesced()) << "node " << n->id();
    EXPECT_EQ(home.dirOwner(a), 0);
    EXPECT_TRUE(verifyCoherence(f.all()).ok);
}

TEST(Checker, ReportsTheLowestCorruptLineWhateverTheTableOrder)
{
    // dirLines() is sorted, so with two bad lines at one home the
    // audit names the lower one, independent of where the directory
    // table happens to store them or which was touched first.
    CoherFixture f;
    const std::vector<mem::Addr> lines = {
        lineAt(1, 4097), lineAt(1, 9), lineAt(1, 1000), lineAt(1, 0),
        lineAt(1, 77)};
    for (mem::Addr a : lines)
        f.access(0, a, true);
    f.drain();
    ASSERT_TRUE(verifyCoherence(f.all()).ok);

    for (std::size_t i = 0; i < lines.size(); ++i) {
        for (std::size_t j = i + 1; j < lines.size(); ++j) {
            // A second owner for both lines: node 3 never asked.
            for (mem::Addr a : {lines[i], lines[j]})
                f.nodes[3]->l2().fill(a, LineState::Modified);
            CheckResult r = verifyCoherence(f.all());
            EXPECT_FALSE(r.ok);
            std::ostringstream want;
            want << "line 0x" << std::hex
                 << std::min(lines[i], lines[j]) << ":";
            EXPECT_EQ(r.firstViolation.rfind(want.str(), 0), 0u)
                << r.firstViolation;
            for (mem::Addr a : {lines[i], lines[j]})
                f.nodes[3]->l2().invalidate(a);
        }
    }
    EXPECT_TRUE(verifyCoherence(f.all()).ok);
}

} // namespace
