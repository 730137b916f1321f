/** @file DegradedTopology tests: verbatim delegation while healthy,
 *  link/node masking, surviving connectivity, the deadlock-free
 *  up/down escape on the degraded graph, and the precomputed
 *  adaptive table against a brute-force derivation. */

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

#include "fault/degraded.hh"
#include "topology/torus.hh"
#include "topology/torus3d.hh"
#include "topology/tree.hh"

namespace
{

using namespace gs;
using namespace gs::fault;

/**
 * Walk the escape relation from @p at to @p dst and validate it:
 * terminates within numNodes() hops (acyclic), every hop uses a live
 * link, and the VC sequence never returns to 0 (up) after a 1 (down)
 * — the invariant that makes up/down routing deadlock-free.
 */
void
expectEscapeWalks(const DegradedTopology &topo, NodeId at, NodeId dst)
{
    NodeId cur = at;
    int maxVcSeen = 0;
    for (int hop = 0; hop <= topo.numNodes(); ++hop) {
        if (cur == dst)
            return;
        topo::EscapeHop esc = topo.escapeRoute(cur, dst, 0);
        ASSERT_GE(esc.port, 0)
            << "no escape route at " << cur << " for dst " << dst;
        topo::Port link = topo.port(cur, esc.port);
        ASSERT_TRUE(link.connected())
            << "escape uses failed link at " << cur;
        EXPECT_GE(esc.vc, maxVcSeen)
            << "escape turned up (VC0) after going down (VC1) at "
            << cur << " toward " << dst;
        maxVcSeen = std::max(maxVcSeen, esc.vc);
        cur = link.peer;
    }
    FAIL() << "escape walk " << at << "->" << dst
           << " did not terminate (cycle)";
}

TEST(DegradedTopology, HealthyDelegatesVerbatim)
{
    topo::Torus2D base(4, 4);
    DegradedTopology deg(base);
    EXPECT_FALSE(deg.degraded());
    EXPECT_EQ(deg.name(), base.name());

    for (NodeId at = 0; at < base.numNodes(); ++at) {
        for (int p = 0; p < base.numPorts(at); ++p) {
            topo::Port a = base.port(at, p), b = deg.port(at, p);
            EXPECT_EQ(a.peer, b.peer);
            EXPECT_EQ(a.peerPort, b.peerPort);
        }
        for (NodeId dst = 0; dst < base.numNodes(); ++dst) {
            EXPECT_EQ(base.adaptivePorts(at, dst, 0),
                      deg.adaptivePorts(at, dst, 0));
            for (int vc = 0; vc < 2; ++vc) {
                topo::EscapeHop a = base.escapeRoute(at, dst, vc);
                topo::EscapeHop b = deg.escapeRoute(at, dst, vc);
                EXPECT_EQ(a.port, b.port);
                EXPECT_EQ(a.vc, b.vc);
            }
        }
    }
}

TEST(DegradedTopology, FailedLinkMaskedBothDirections)
{
    topo::Torus2D base(4, 4);
    DegradedTopology deg(base);
    deg.failLink(0, topo::portEast); // 0 <-> 1

    EXPECT_TRUE(deg.degraded());
    EXPECT_EQ(deg.failedLinks(), 1);
    EXPECT_FALSE(deg.port(0, topo::portEast).connected());
    EXPECT_FALSE(deg.port(1, topo::portWest).connected());
    EXPECT_TRUE(deg.linkFailed(0, topo::portEast));
    EXPECT_TRUE(deg.linkFailed(1, topo::portWest));
    // Unrelated links untouched.
    EXPECT_TRUE(deg.port(0, topo::portWest).connected());
    EXPECT_TRUE(deg.port(2, topo::portEast).connected());
}

TEST(DegradedTopology, AdaptivePortsShrinkAroundFailure)
{
    topo::Torus2D base(4, 4);
    DegradedTopology deg(base);
    // 0 -> 5 is minimal via East then South-ish: both E and N.
    topo::PortSet before = deg.adaptivePorts(0, 5, 0);
    ASSERT_EQ(before.size(), 2u);

    deg.failLink(0, topo::portEast);
    topo::PortSet after = deg.adaptivePorts(0, 5, 0);
    ASSERT_EQ(after.size(), 1u);
    EXPECT_NE(after[0], topo::portEast);
}

TEST(DegradedTopology, OneFailedTorusLinkKeepsFullConnectivity)
{
    topo::Torus2D base(8, 8);
    DegradedTopology deg(base);
    deg.failLink(0, topo::portEast);

    EXPECT_TRUE(deg.connected());
    for (NodeId a = 0; a < deg.numNodes(); ++a)
        for (NodeId b = 0; b < deg.numNodes(); ++b)
            EXPECT_TRUE(deg.reachable(a, b));

    // Every pair still has a valid, acyclic, VC-monotone escape.
    for (NodeId a = 0; a < deg.numNodes(); ++a)
        for (NodeId b = 0; b < deg.numNodes(); ++b)
            expectEscapeWalks(deg, a, b);
}

TEST(DegradedTopology, ManyFailedLinksStillRouteWhileConnected)
{
    topo::Torus2D base(4, 4);
    DegradedTopology deg(base);
    // Cut the whole East column of row-crossing links plus one more.
    deg.failLink(0, topo::portEast);
    deg.failLink(4, topo::portEast);
    deg.failLink(8, topo::portEast);
    deg.failLink(12, topo::portEast);
    deg.failLink(5, topo::portNorth);
    ASSERT_EQ(deg.failedLinks(), 5);

    ASSERT_TRUE(deg.connected());
    for (NodeId a = 0; a < deg.numNodes(); ++a)
        for (NodeId b = 0; b < deg.numNodes(); ++b)
            expectEscapeWalks(deg, a, b);
}

TEST(DegradedTopology, NodeFailureMasksAllItsLinks)
{
    topo::Torus2D base(4, 4);
    DegradedTopology deg(base);
    deg.failNode(5);

    EXPECT_TRUE(deg.nodeFailed(5));
    EXPECT_EQ(deg.failedNodes(), 1);
    for (int p = 0; p < 4; ++p)
        EXPECT_FALSE(deg.port(5, p).connected());
    // Neighbours see their port toward 5 dark too.
    EXPECT_FALSE(deg.port(4, topo::portEast).connected());
    EXPECT_FALSE(deg.port(6, topo::portWest).connected());

    EXPECT_FALSE(deg.reachable(0, 5));
    EXPECT_FALSE(deg.reachable(5, 0));
    // Survivors still all-route.
    for (NodeId a = 0; a < deg.numNodes(); ++a) {
        if (a == 5)
            continue;
        for (NodeId b = 0; b < deg.numNodes(); ++b) {
            if (b == 5)
                continue;
            EXPECT_TRUE(deg.reachable(a, b));
            expectEscapeWalks(deg, a, b);
        }
    }
}

TEST(DegradedTopology, RepairRestoresVerbatimDelegation)
{
    topo::Torus2D base(4, 4);
    DegradedTopology deg(base);
    deg.failLink(3, topo::portSouth);
    deg.failNode(9);
    EXPECT_TRUE(deg.degraded());

    deg.repairNode(9);
    deg.repairLink(3, topo::portSouth);
    EXPECT_FALSE(deg.degraded());

    for (NodeId at = 0; at < base.numNodes(); ++at) {
        for (NodeId dst = 0; dst < base.numNodes(); ++dst) {
            topo::EscapeHop a = base.escapeRoute(at, dst, 0);
            topo::EscapeHop b = deg.escapeRoute(at, dst, 0);
            EXPECT_EQ(a.port, b.port);
            EXPECT_EQ(a.vc, b.vc);
        }
    }
}

TEST(DegradedTopology, TreeUplinkFailurePartitions)
{
    // The GS320's hierarchy has single points of failure: cutting a
    // QBB's uplink to the global switch orphans that whole QBB. (The
    // torus tests above show the GS1280 contrast.)
    topo::QbbTree tree(8, 4); // 2 QBBs + global switch
    DegradedTopology deg(tree);
    // QBB switch of CPU 0 is node 8; its uplink is port 4 (perQbb).
    deg.failLink(8, 4);

    EXPECT_FALSE(deg.reachable(0, 4)); // CPU in the other QBB
    EXPECT_TRUE(deg.reachable(0, 3));  // same QBB still fine
    EXPECT_FALSE(deg.connected());
    EXPECT_LT(deg.escapeRoute(0, 4, 0).port, 0); // no route exists
    expectEscapeWalks(deg, 0, 3);

    deg.repairLink(8, 4);
    EXPECT_TRUE(deg.reachable(0, 4));
}

TEST(DegradedTopology, EscapeForestDeterministic)
{
    topo::Torus2D base(4, 4);
    DegradedTopology a(base), b(base);
    a.failLink(2, topo::portNorth);
    b.failLink(2, topo::portNorth);
    for (NodeId at = 0; at < base.numNodes(); ++at) {
        for (NodeId dst = 0; dst < base.numNodes(); ++dst) {
            EXPECT_EQ(a.escapeRoute(at, dst, 0).port,
                      b.escapeRoute(at, dst, 0).port);
            EXPECT_EQ(a.escapeRoute(at, dst, 0).vc,
                      b.escapeRoute(at, dst, 0).vc);
        }
    }
}

/**
 * Check adaptivePorts() for every (at, dst) against a derivation from
 * first principles. Healthy: the base topology's answer. Degraded:
 * every live port of @p at whose peer is one hop closer to @p dst on
 * the surviving graph, in port order, by BFS distances over the
 * masked port() relation.
 */
void
expectAdaptiveMatchesOracle(const DegradedTopology &deg)
{
    const topo::Topology &base = deg.base();
    for (NodeId dst = 0; dst < deg.numNodes(); ++dst) {
        const std::vector<int> toDst = deg.distancesFrom(dst);
        for (NodeId at = 0; at < deg.numNodes(); ++at) {
            topo::PortSet want;
            if (!deg.degraded()) {
                want = base.adaptivePorts(at, dst, 0);
            } else if (at != dst &&
                       toDst[static_cast<std::size_t>(at)] > 0) {
                for (int p = 0; p < deg.numPorts(at); ++p) {
                    topo::Port link = deg.port(at, p);
                    if (link.connected() &&
                        toDst[static_cast<std::size_t>(link.peer)] ==
                            toDst[static_cast<std::size_t>(at)] - 1)
                        want.push_back(p);
                }
            }
            ASSERT_EQ(deg.adaptivePorts(at, dst, 0), want)
                << deg.name() << ": at " << at << " dst " << dst;
        }
    }
}

/**
 * Fail random links and routers of @p base in several rounds, checking
 * the adaptive table after every mutation, then repair everything and
 * check it delegates to the base again.
 */
void
checkRandomFaults(const topo::Topology &base, std::uint32_t seed,
                  int links, int nodes)
{
    DegradedTopology deg(base);
    std::mt19937 rng(seed);
    auto pick = [&rng](int n) {
        return static_cast<int>(rng() % static_cast<std::uint32_t>(n));
    };
    struct Cut
    {
        NodeId node;
        int port;
    };
    for (int round = 0; round < 3; ++round) {
        std::vector<Cut> cuts;
        std::vector<NodeId> downed;
        for (int i = 0; i < links; ++i) {
            NodeId node = pick(base.numNodes());
            int port = pick(base.numPorts(node));
            if (!base.port(node, port).connected())
                continue;
            deg.failLink(node, port);
            cuts.push_back({node, port});
            expectAdaptiveMatchesOracle(deg);
        }
        for (int i = 0; i < nodes; ++i) {
            NodeId node = pick(base.numNodes());
            deg.failNode(node);
            downed.push_back(node);
            expectAdaptiveMatchesOracle(deg);
        }
        // Partial repair keeps the fabric degraded; the rest makes
        // it healthy, where the table is dropped for delegation.
        for (NodeId node : downed)
            deg.repairNode(node);
        expectAdaptiveMatchesOracle(deg);
        for (Cut c : cuts)
            deg.repairLink(c.node, c.port);
        ASSERT_FALSE(deg.degraded());
        expectAdaptiveMatchesOracle(deg);
    }
}

TEST(DegradedTopology, AdaptiveTableMatchesOracleTorus2D)
{
    topo::Torus2D base(8, 8);
    for (std::uint32_t seed : {1u, 2u, 3u})
        checkRandomFaults(base, seed, 6, 2);
}

TEST(DegradedTopology, AdaptiveTableMatchesOracleSizeTwoRings)
{
    // 2x4: the X rings have two nodes, so E and W of a node are two
    // distinct links to the same peer; cutting one keeps the other.
    topo::Torus2D base(2, 4);
    for (std::uint32_t seed : {1u, 2u, 3u, 4u})
        checkRandomFaults(base, seed, 3, 1);

    DegradedTopology deg(base);
    deg.failLink(0, topo::portEast);
    topo::PortSet ports = deg.adaptivePorts(0, 1, 0);
    ASSERT_EQ(ports.size(), 1u);
    EXPECT_EQ(ports[0], topo::portWest);
    expectAdaptiveMatchesOracle(deg);
}

TEST(DegradedTopology, AdaptiveTableMatchesOracleTorus3D)
{
    topo::Torus3D base(4, 4, 2);
    for (std::uint32_t seed : {1u, 2u})
        checkRandomFaults(base, seed, 8, 2);
}

TEST(DegradedTopology, AdaptiveTableMatchesOracleTree)
{
    topo::QbbTree base(32, 4);
    for (std::uint32_t seed : {1u, 2u})
        checkRandomFaults(base, seed, 4, 1);
}

/** A router wider than the adaptive port mask. */
class WideStar : public topo::Topology
{
  public:
    int numNodes() const override { return 18; }
    int numCpuNodes() const override { return 17; }
    int numPorts(NodeId n) const override { return n == 17 ? 17 : 1; }
    topo::Port
    port(NodeId n, int p) const override
    {
        if (n == 17)
            return topo::Port{static_cast<NodeId>(p), 0,
                              topo::LinkKind::Internal};
        return topo::Port{17, static_cast<int>(n),
                          topo::LinkKind::Internal};
    }
    std::string name() const override { return "wide star"; }
    topo::PortSet adaptivePorts(NodeId, NodeId, int) const override
    {
        return {};
    }
    topo::EscapeHop escapeRoute(NodeId at, NodeId dst,
                                int) const override
    {
        if (at == dst)
            return {};
        return {at == 17 ? static_cast<int>(dst) : 0, 0};
    }
};

TEST(DegradedTopologyDeathTest, RouterWiderThanPortMaskRejected)
{
    WideStar star;
    EXPECT_DEATH(DegradedTopology deg(star), "adaptive port mask");
}

} // namespace
