/**
 * @file
 * A Topology decorator that masks failed links and routers.
 *
 * The GS1280's torus was designed for graceful degradation: every
 * node pair has multiple minimal paths, so the machine can route
 * around a broken cable or a dead router, where the GS320's switch
 * hierarchy has single points of failure. DegradedTopology is the
 * routing side of that story: it wraps any base Topology and
 * re-answers the routing relations over the surviving graph.
 *
 *  - port() hides masked links (both directions at once);
 *  - adaptivePorts() re-derives minimality on the surviving graph:
 *    a candidate hop must strictly decrease the BFS distance to the
 *    destination. (Filtering the base topology's minimal set is not
 *    enough: a base-minimal hop can move *away* from the target in
 *    the degraded graph and livelock against the escape route.)
 *    Every fault event precomputes the answer for all (at, dst)
 *    pairs into a table of port bitmasks, filled by the same
 *    per-destination BFS that measures the distances, so a routing
 *    query is one table load; the distances themselves are not
 *    kept.
 *  - escapeRoute() falls back from the base topology's scheme
 *    (dimension-order with a dateline on tori) to up/down routing
 *    on a BFS-derived spanning forest of the surviving graph: up
 *    hops toward the root use escape VC0, down hops VC1, which is
 *    deadlock-free on any graph because no path ever turns up again
 *    after going down.
 *
 * Pay-for-use: while nothing is failed, every routing query
 * delegates verbatim to the base topology, so a fault-capable build
 * is bit-identical to one without the fault layer.
 */

#ifndef GS_FAULT_DEGRADED_HH
#define GS_FAULT_DEGRADED_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/checkpoint.hh"
#include "topology/topology.hh"

namespace gs::fault
{

/** A live view of a base topology minus its failed elements. */
class DegradedTopology : public topo::Topology
{
  public:
    explicit DegradedTopology(const topo::Topology &base);

    /** @name Topology interface (delegating, fault-masked) */
    /// @{
    int numNodes() const override { return base_.numNodes(); }
    int numCpuNodes() const override { return base_.numCpuNodes(); }
    int numPorts(NodeId n) const override { return base_.numPorts(n); }
    topo::Port port(NodeId node, int port) const override;
    std::string name() const override;

    topo::PortSet
    adaptivePorts(NodeId at, NodeId dst, int hopsTaken) const override;

    topo::EscapeHop
    escapeRoute(NodeId at, NodeId dst, int curVc) const override;
    /// @}

    /** @name Fault state mutation
     *
     * Callers that wired a Network over this topology must notify it
     * afterwards (Network::onTopologyChange); FaultInjector does both.
     */
    /// @{

    /** Fail the link behind (node, port), in both directions. */
    void failLink(NodeId node, int port);

    /** Undo failLink. */
    void repairLink(NodeId node, int port);

    /** Fail a whole router: all its links drop. */
    void failNode(NodeId node);

    /** Undo failNode (independently failed links stay failed). */
    void repairNode(NodeId node);
    /// @}

    /** @name Fault state inspection */
    /// @{
    bool degraded() const { return nFailedLinks > 0 || nFailedNodes > 0; }
    int failedLinks() const { return nFailedLinks; }
    int failedNodes() const { return nFailedNodes; }
    bool linkFailed(NodeId node, int port) const;
    bool nodeFailed(NodeId node) const
    {
        return dead[static_cast<std::size_t>(node)] != 0;
    }

    /** True when the surviving fabric still routes at -> dst. */
    bool reachable(NodeId at, NodeId dst) const;

    const topo::Topology &base() const { return base_; }
    /// @}

    /** @name Checkpoint/restore: fault masks (escape state is
     *  recomputed from them, never serialized). */
    /// @{
    void
    saveCkpt(ckpt::Serializer &s) const
    {
        s.put32(static_cast<std::uint32_t>(cut.size()));
        for (const auto &ports : cut) {
            s.put32(static_cast<std::uint32_t>(ports.size()));
            for (char c : ports)
                s.put8(static_cast<std::uint8_t>(c));
        }
        for (char c : dead)
            s.put8(static_cast<std::uint8_t>(c));
        s.putI32(nFailedLinks);
        s.putI32(nFailedNodes);
    }

    void
    restoreCkpt(ckpt::Deserializer &d)
    {
        if (d.get32() != cut.size() && d.ok()) {
            d.fail("snapshot topology node count differs from this "
                   "machine");
            return;
        }
        for (auto &ports : cut) {
            if (d.get32() != ports.size() && d.ok()) {
                d.fail("snapshot topology port count differs from "
                       "this machine");
                return;
            }
            for (char &c : ports)
                c = static_cast<char>(d.get8());
        }
        for (char &c : dead)
            c = static_cast<char>(d.get8());
        nFailedLinks = d.getI32();
        nFailedNodes = d.getI32();
        if (d.ok() && degraded())
            rebuild();
    }
    /// @}

  private:
    /** Bit p set: port p is in the adaptive set. */
    using PortMask = std::uint16_t;

    /** Widest router the port mask describes. */
    static constexpr int maskPorts = std::numeric_limits<PortMask>::digits;

    /** Both endpoints live and the link itself not cut? */
    bool alive(NodeId node, int port, const topo::Port &link) const;

    /** Recompute the escape forest, next-hop and adaptive tables. */
    void rebuild();

    const topo::Topology &base_;

    std::vector<std::vector<char>> cut; ///< per-(node, port) link mask
    std::vector<char> dead;             ///< per-node router mask
    int nFailedLinks = 0;
    int nFailedNodes = 0;

    /** @name Routing tables (valid while degraded()) */
    /// @{
    std::vector<NodeId> parent;   ///< BFS forest parent (invalidNode = root)
    std::vector<int> parentPort;  ///< port from node toward its parent
    std::vector<NodeId> comp;     ///< connected-component id per node
    std::vector<topo::EscapeHop> esc; ///< next hop, indexed [dst * N + at]
    std::vector<PortMask> adapt; ///< minimal ports, [dst * N + at]
    /// @}
};

} // namespace gs::fault

#endif // GS_FAULT_DEGRADED_HH
