#include "fault/degraded.hh"

#include <algorithm>
#include <bit>
#include <deque>

#include "sim/logging.hh"

namespace gs::fault
{

DegradedTopology::DegradedTopology(const topo::Topology &base)
    : base_(base)
{
    const int n = base.numNodes();
    cut.resize(static_cast<std::size_t>(n));
    for (NodeId node = 0; node < n; ++node) {
        gs_assert(base.numPorts(node) <= maskPorts, "node ", node,
                  " has ", base.numPorts(node),
                  " ports; the adaptive port mask holds ", maskPorts);
        cut[static_cast<std::size_t>(node)].assign(
            static_cast<std::size_t>(base.numPorts(node)), 0);
    }
    dead.assign(static_cast<std::size_t>(n), 0);
}

bool
DegradedTopology::alive(NodeId node, int port,
                        const topo::Port &link) const
{
    if (!link.connected())
        return false;
    if (dead[static_cast<std::size_t>(node)] ||
        dead[static_cast<std::size_t>(link.peer)])
        return false;
    return cut[static_cast<std::size_t>(node)]
              [static_cast<std::size_t>(port)] == 0;
}

topo::Port
DegradedTopology::port(NodeId node, int p) const
{
    topo::Port link = base_.port(node, p);
    if (!degraded() || !link.connected())
        return link;
    return alive(node, p, link) ? link : topo::Port{};
}

std::string
DegradedTopology::name() const
{
    if (!degraded())
        return base_.name();
    std::string out = base_.name() + " [degraded:";
    if (nFailedLinks > 0)
        out += " " + std::to_string(nFailedLinks) + " links";
    if (nFailedNodes > 0)
        out += " " + std::to_string(nFailedNodes) + " nodes";
    return out + " down]";
}

topo::PortSet
DegradedTopology::adaptivePorts(NodeId at, NodeId dst,
                                int hopsTaken) const
{
    if (!degraded())
        return base_.adaptivePorts(at, dst, hopsTaken);
    // Dead endpoints, at == dst and unreachable pairs all hold an
    // empty mask (the escape lookup reports unreachability).
    topo::PortSet ports;
    for (unsigned m = adapt[static_cast<std::size_t>(dst) *
                                static_cast<std::size_t>(numNodes()) +
                            static_cast<std::size_t>(at)];
         m != 0; m &= m - 1)
        ports.push_back(std::countr_zero(m));
    return ports;
}

topo::EscapeHop
DegradedTopology::escapeRoute(NodeId at, NodeId dst, int curVc) const
{
    if (!degraded())
        return base_.escapeRoute(at, dst, curVc);
    return esc[static_cast<std::size_t>(dst) *
                   static_cast<std::size_t>(numNodes()) +
               static_cast<std::size_t>(at)];
}

void
DegradedTopology::failLink(NodeId node, int p)
{
    topo::Port link = base_.port(node, p);
    gs_assert(link.connected(), "failing unconnected port ", p,
              " of node ", node);
    auto &mine = cut[static_cast<std::size_t>(node)]
                    [static_cast<std::size_t>(p)];
    auto &theirs = cut[static_cast<std::size_t>(link.peer)]
                      [static_cast<std::size_t>(link.peerPort)];
    if (!mine) {
        mine = 1;
        theirs = 1;
        nFailedLinks += 1;
    }
    rebuild();
}

void
DegradedTopology::repairLink(NodeId node, int p)
{
    topo::Port link = base_.port(node, p);
    gs_assert(link.connected(), "repairing unconnected port ", p,
              " of node ", node);
    auto &mine = cut[static_cast<std::size_t>(node)]
                    [static_cast<std::size_t>(p)];
    auto &theirs = cut[static_cast<std::size_t>(link.peer)]
                      [static_cast<std::size_t>(link.peerPort)];
    if (mine) {
        mine = 0;
        theirs = 0;
        nFailedLinks -= 1;
    }
    rebuild();
}

void
DegradedTopology::failNode(NodeId node)
{
    gs_assert(node >= 0 && node < numNodes(), "bad node ", node);
    auto &flag = dead[static_cast<std::size_t>(node)];
    if (!flag) {
        flag = 1;
        nFailedNodes += 1;
    }
    rebuild();
}

void
DegradedTopology::repairNode(NodeId node)
{
    gs_assert(node >= 0 && node < numNodes(), "bad node ", node);
    auto &flag = dead[static_cast<std::size_t>(node)];
    if (flag) {
        flag = 0;
        nFailedNodes -= 1;
    }
    rebuild();
}

bool
DegradedTopology::linkFailed(NodeId node, int p) const
{
    return cut[static_cast<std::size_t>(node)]
              [static_cast<std::size_t>(p)] != 0;
}

bool
DegradedTopology::reachable(NodeId at, NodeId dst) const
{
    if (!degraded())
        return true;
    if (dead[static_cast<std::size_t>(at)] ||
        dead[static_cast<std::size_t>(dst)])
        return false;
    return comp[static_cast<std::size_t>(at)] ==
           comp[static_cast<std::size_t>(dst)];
}

void
DegradedTopology::rebuild()
{
    if (!degraded()) {
        // Back to a healthy fabric: every query delegates again.
        parent.clear();
        parentPort.clear();
        comp.clear();
        esc.clear();
        adapt.clear();
        return;
    }

    const auto n = static_cast<std::size_t>(numNodes());
    parent.assign(n, invalidNode);
    parentPort.assign(n, -1);
    comp.assign(n, invalidNode);

    // The surviving port relation, read from the base topology once:
    // the searches below walk these flat lists instead of asking for
    // every edge again on every search. A failed link is a
    // disconnected Port; entry first[at] + p is port p of at.
    std::vector<std::size_t> first(n + 1);
    std::vector<topo::Port> links;
    for (NodeId at = 0; at < numNodes(); ++at) {
        first[static_cast<std::size_t>(at)] = links.size();
        for (int p = 0; p < numPorts(at); ++p) {
            topo::Port link = base_.port(at, p);
            links.push_back(alive(at, p, link) ? link : topo::Port{});
        }
    }
    first[n] = links.size();

    // BFS spanning forest of the surviving graph. Deterministic:
    // roots in increasing node order, neighbours in port order.
    std::deque<NodeId> queue;
    for (NodeId root = 0; root < numNodes(); ++root) {
        if (dead[static_cast<std::size_t>(root)] ||
            comp[static_cast<std::size_t>(root)] != invalidNode)
            continue;
        comp[static_cast<std::size_t>(root)] = root;
        queue.push_back(root);
        while (!queue.empty()) {
            auto at = static_cast<std::size_t>(queue.front());
            queue.pop_front();
            for (std::size_t i = first[at]; i < first[at + 1]; ++i) {
                const topo::Port &link = links[i];
                if (!link.connected())
                    continue;
                auto peer = static_cast<std::size_t>(link.peer);
                if (comp[peer] != invalidNode)
                    continue;
                comp[peer] = root;
                parent[peer] = static_cast<NodeId>(at);
                parentPort[peer] = link.peerPort;
                queue.push_back(link.peer);
            }
        }
    }

    // Minimal adaptive ports, from one BFS per destination over the
    // surviving graph. A hop is adaptive only if it strictly closes
    // on the destination: the base topology's minimal set would
    // happily point through (or around) the hole and ping-pong
    // against the escape route. An edge at -> peer that reaches peer
    // one hop further out than at is, reversed, such a hop from peer,
    // so peer's port back along it (link.peerPort) joins peer's mask.
    // BFS settles every node of distance d + 1 while expanding the
    // nodes of distance d, so each qualifying edge is seen once.
    adapt.assign(n * n, 0);
    std::vector<int> hops(n);
    for (NodeId dst = 0; dst < numNodes(); ++dst) {
        if (dead[static_cast<std::size_t>(dst)])
            continue;
        std::fill(hops.begin(), hops.end(), -1);
        PortMask *mask = &adapt[static_cast<std::size_t>(dst) * n];
        hops[static_cast<std::size_t>(dst)] = 0;
        queue.push_back(dst);
        while (!queue.empty()) {
            auto at = static_cast<std::size_t>(queue.front());
            queue.pop_front();
            const int next = hops[at] + 1;
            for (std::size_t i = first[at]; i < first[at + 1]; ++i) {
                const topo::Port &link = links[i];
                if (!link.connected())
                    continue;
                auto peer = static_cast<std::size_t>(link.peer);
                if (hops[peer] < 0) {
                    hops[peer] = next;
                    queue.push_back(link.peer);
                }
                if (hops[peer] == next)
                    mask[peer] |= static_cast<PortMask>(
                        1u << link.peerPort);
            }
        }
    }

    // Per-destination next hops: up the forest to the lowest common
    // ancestor (escape VC0), then down along dst's ancestor path
    // (VC1). Paths never turn upward after descending, so the escape
    // channels stay deadlock-free on any surviving graph.
    esc.assign(n * n, topo::EscapeHop{-1, 0});
    std::vector<int> downPort(n);
    for (NodeId dst = 0; dst < numNodes(); ++dst) {
        if (dead[static_cast<std::size_t>(dst)])
            continue;
        std::fill(downPort.begin(), downPort.end(), -1);
        for (NodeId cur = dst;
             parent[static_cast<std::size_t>(cur)] != invalidNode;) {
            auto c = static_cast<std::size_t>(cur);
            NodeId par = parent[c];
            // The parent's port toward cur reverses cur's parent port.
            downPort[static_cast<std::size_t>(par)] =
                links[first[c] + static_cast<std::size_t>(parentPort[c])]
                    .peerPort;
            cur = par;
        }
        auto *row = &esc[static_cast<std::size_t>(dst) * n];
        for (NodeId at = 0; at < numNodes(); ++at) {
            auto i = static_cast<std::size_t>(at);
            if (dead[i] || comp[i] != comp[static_cast<std::size_t>(dst)])
                continue; // unreachable: stays {-1, 0}
            if (at == dst)
                continue;
            if (downPort[i] >= 0)
                row[i] = topo::EscapeHop{downPort[i], 1};
            else
                row[i] = topo::EscapeHop{parentPort[i], 0};
        }
    }
}

} // namespace gs::fault
