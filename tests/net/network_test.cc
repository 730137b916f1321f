/** @file Network fabric tests: delivery, latency composition,
 *  loopback, statistics, and deadlock-freedom under load. */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/network.hh"
#include "sim/parallel.hh"
#include "sim/random.hh"
#include "topology/torus.hh"
#include "topology/tree.hh"

namespace
{

using namespace gs;
using namespace gs::net;

struct NetFixture
{
    explicit NetFixture(int w = 4, int h = 4,
                        NetworkParams p = NetworkParams::gs1280())
        : topo(w, h), net(ctx, topo, p)
    {
    }

    SimContext ctx;
    topo::Torus2D topo;
    Network net;
};

Packet
makePacket(NodeId src, NodeId dst, MsgClass cls = MsgClass::Request,
           int flits = headerFlits)
{
    Packet p;
    p.src = src;
    p.dst = dst;
    p.cls = cls;
    p.flits = flits;
    return p;
}

TEST(Network, DeliversSinglePacket)
{
    NetFixture f;
    bool got = false;
    f.net.setHandler(5, [&](const Packet &p) {
        got = true;
        EXPECT_EQ(p.src, 0);
        EXPECT_EQ(p.dst, 5);
        EXPECT_GE(p.hops, 2); // (0,0)->(1,1) is 2 hops minimum
    });
    f.net.inject(makePacket(0, 5));
    f.ctx.queue().runUntil();
    EXPECT_TRUE(got);
    EXPECT_EQ(f.net.stats().deliveredPackets, 1u);
    EXPECT_EQ(f.net.inFlight(), 0);
}

/** Delivery ticks of one clocking-contract run (see below). */
struct Crossing
{
    Tick probe = maxTick;     ///< the 0 -> 5 packet's delivery
    Tick bystander = 0;       ///< last bystander delivery (0: none)
};

/**
 * Send one packet 0 -> 5 across an idle 4x4 torus, optionally while
 * router 10 — two hops from the probe's route, and in another tile
 * of the 2x2 partition — drains a queue of packets to its neighbour
 * 11. @p domains is 1 (serial) or 4 (2x2 tiles, two workers).
 */
Crossing
crossIdleTorus(bool bystander, int domains)
{
    SimContext ctx;
    topo::Torus2D topo(4, 4);
    Network net(ctx, topo, NetworkParams::gs1280());
    std::unique_ptr<ParallelEngine> eng;
    if (domains > 1) {
        ParallelEngine::Config cfg;
        cfg.domains = domains;
        cfg.threads = 2;
        cfg.lookahead = net.conservativeLookahead();
        eng = std::make_unique<ParallelEngine>(cfg);
        std::vector<int> dom;
        for (NodeId n = 0; n < topo.numNodes(); ++n)
            dom.push_back(tileDomainOf(topo.xOf(n), topo.yOf(n), 4, 4,
                                       TileShape{2, 2}));
        std::vector<SimContext *> dctx;
        for (int d = 0; d < domains; ++d)
            dctx.push_back(&eng->domainCtx(d));
        net.setPartition(std::move(dom), std::move(dctx));
        eng->setMergeHook(
            [&net](int d, Tick ws) { net.mergeFor(d, ws); });
        eng->setPendingMinHook(
            [&net](int d) { return net.pendingMinOf(d); });
        eng->setWindowHook([&net](Tick ws, Tick base_end) {
            return net.adaptiveWindow(ws, base_end);
        });
    }

    Crossing out;
    net.setHandler(5, [&](const Packet &) {
        out.probe = net.ctxOf(5).now();
    });
    net.setHandler(11, [&](const Packet &) {
        out.bystander = net.ctxOf(11).now();
    });
    if (bystander) {
        for (int i = 0; i < 64; ++i)
            net.inject(makePacket(10, 11));
    }
    net.inject(makePacket(0, 5));
    if (eng)
        eng->run(maxTick);
    else
        ctx.queue().runUntil();
    return out;
}

/**
 * Clocking contract: a router's tick times depend only on its own
 * events. A busy router elsewhere in the machine — in the serial
 * engine's shared tick chain, or in another tile — must not change
 * when an idle router wakes, so the probe delivers at the same tick
 * alone and beside the bystander, serial and partitioned.
 */
TEST(Network, RouterWakeIgnoresDistantBusyRouter)
{
    const Tick serial = crossIdleTorus(false, 1).probe;
    ASSERT_NE(serial, maxTick);
    for (int domains : {1, 4}) {
        SCOPED_TRACE("domains=" + std::to_string(domains));
        const Crossing alone = crossIdleTorus(false, domains);
        const Crossing busy = crossIdleTorus(true, domains);
        // The bystander really was busy across the whole crossing.
        ASSERT_GT(busy.bystander, busy.probe);
        EXPECT_EQ(alone.probe, serial);
        EXPECT_EQ(busy.probe, serial);
    }
}

TEST(Network, LoopbackBypassesFabric)
{
    NetFixture f;
    bool got = false;
    f.net.setHandler(3, [&](const Packet &p) {
        got = true;
        EXPECT_EQ(p.hops, 0);
    });
    f.net.inject(makePacket(3, 3));
    f.ctx.queue().runUntil();
    EXPECT_TRUE(got);
    // No link was used.
    for (int p = 0; p < 4; ++p)
        EXPECT_EQ(f.net.linkBusyFlits(3, p), 0u);
}

TEST(Network, LongerPathsTakeLonger)
{
    std::map<int, double> latencyByHops;
    for (NodeId dst : {1, 2, 10}) { // 1, 2 and 4 hops from 0 in 4x4
        NetFixture f;
        f.net.setHandler(dst, [](const Packet &) {});
        f.net.inject(makePacket(0, dst));
        f.ctx.queue().runUntil();
        int hops = static_cast<int>(
            f.net.stats().hopsPerPacket.mean());
        latencyByHops[hops] = f.net.stats().latencyNs.mean();
    }
    ASSERT_EQ(latencyByHops.size(), 3u);
    auto it = latencyByHops.begin();
    auto [h1, l1] = *it++;
    auto [h2, l2] = *it++;
    auto [h3, l3] = *it;
    EXPECT_LT(h1, h2);
    EXPECT_LT(l1, l2);
    EXPECT_LT(l2, l3);
}

TEST(Network, DataPacketsSlowerThanHeaders)
{
    double headerNs, dataNs;
    {
        NetFixture f;
        f.net.setHandler(2, [](const Packet &) {});
        f.net.inject(makePacket(0, 2, MsgClass::Request, headerFlits));
        f.ctx.queue().runUntil();
        headerNs = f.net.stats().latencyNs.mean();
    }
    {
        NetFixture f;
        f.net.setHandler(2, [](const Packet &) {});
        f.net.inject(
            makePacket(0, 2, MsgClass::BlockResponse, dataFlits));
        f.ctx.queue().runUntil();
        dataNs = f.net.stats().latencyNs.mean();
    }
    EXPECT_GT(dataNs, headerNs + 10.0); // 16 extra flits at 767 MHz
}

TEST(Network, MinimalHopCounts)
{
    NetFixture f;
    int hops = -1;
    f.net.setHandler(10, [&](const Packet &p) { hops = p.hops; });
    f.net.inject(makePacket(0, 10)); // (0,0)->(2,2): 4 hops minimal
    f.ctx.queue().runUntil();
    EXPECT_EQ(hops, 4);
}

TEST(Network, LinkCountersAccumulate)
{
    NetFixture f;
    f.net.setHandler(1, [](const Packet &) {});
    f.net.inject(makePacket(0, 1, MsgClass::Request, 6));
    f.ctx.queue().runUntil();
    // (0,0)->(1,0): the East link out of node 0 carried 6 flits.
    EXPECT_EQ(f.net.linkBusyFlits(0, topo::portEast), 6u);
}

TEST(Network, ManyToOneAllDelivered)
{
    NetFixture f;
    int got = 0;
    f.net.setHandler(0, [&](const Packet &) { got += 1; });
    for (NodeId src = 1; src < 16; ++src)
        for (int i = 0; i < 20; ++i)
            f.net.inject(makePacket(src, 0, MsgClass::BlockResponse,
                                    dataFlits));
    f.ctx.queue().runUntil();
    EXPECT_EQ(got, 15 * 20);
    EXPECT_EQ(f.net.inFlight(), 0);
}

/**
 * Deadlock-freedom property: saturating uniform-random traffic of
 * every class on a torus (with wraparound and adaptivity in play)
 * must fully drain. This exercises the dateline escape VCs, the
 * adaptive-to-escape fallback and the two-level arbitration.
 */
class NetworkSaturation
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(NetworkSaturation, RandomTrafficDrains)
{
    auto [w, h] = GetParam();
    NetFixture f(w, h);
    Rng rng(99);
    const int n = f.topo.numNodes();
    int got = 0;

    for (NodeId node = 0; node < n; ++node)
        f.net.setHandler(node, [&](const Packet &) { got += 1; });

    const MsgClass classes[] = {MsgClass::Request, MsgClass::Forward,
                                MsgClass::BlockResponse, MsgClass::Ack,
                                MsgClass::IO};
    int sent = 0;
    for (int burst = 0; burst < 40; ++burst) {
        for (NodeId src = 0; src < n; ++src) {
            NodeId dst =
                static_cast<NodeId>(rng.below(
                    static_cast<std::uint64_t>(n)));
            if (dst == src)
                continue;
            MsgClass cls = classes[rng.below(5)];
            int flits = cls == MsgClass::BlockResponse ? dataFlits
                                                       : headerFlits;
            f.net.inject(makePacket(src, dst, cls, flits));
            sent += 1;
        }
    }

    f.ctx.queue().runUntil(100 * tickMs);
    EXPECT_EQ(got, sent) << "network failed to drain (deadlock?)";
    EXPECT_EQ(f.net.inFlight(), 0);
}

INSTANTIATE_TEST_SUITE_P(Shapes, NetworkSaturation,
                         ::testing::Values(std::pair{4, 4},
                                           std::pair{4, 2},
                                           std::pair{8, 4},
                                           std::pair{2, 2},
                                           std::pair{5, 3}));

TEST(Network, TreeFabricDrains)
{
    SimContext ctx;
    topo::QbbTree tree(16, 4);
    Network net(ctx, tree, NetworkParams::gs320());
    int got = 0;
    for (NodeId n = 0; n < 16; ++n)
        net.setHandler(n, [&](const Packet &) { got += 1; });

    Rng rng(7);
    int sent = 0;
    for (int i = 0; i < 400; ++i) {
        auto src = static_cast<NodeId>(rng.below(16));
        auto dst = static_cast<NodeId>(rng.below(16));
        if (src == dst)
            continue;
        net.inject(makePacket(src, dst, MsgClass::BlockResponse,
                              dataFlits));
        sent += 1;
    }
    ctx.queue().runUntil(100 * tickMs);
    EXPECT_EQ(got, sent);
}

TEST(Network, ClearStatsResets)
{
    NetFixture f;
    f.net.setHandler(1, [](const Packet &) {});
    f.net.inject(makePacket(0, 1));
    f.ctx.queue().runUntil();
    EXPECT_GT(f.net.stats().deliveredPackets, 0u);
    f.net.clearStats();
    EXPECT_EQ(f.net.stats().deliveredPackets, 0u);
    EXPECT_EQ(f.net.linkBusyFlits(0, topo::portEast), 0u);
}

} // namespace
