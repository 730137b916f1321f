#include "net/router.hh"

#include <algorithm>
#include <bit>

#include "net/network.hh"
#include "sim/logging.hh"

namespace gs::net
{

Router::Router(Network &network, NodeId node)
    : net(network), id(node)
{
    const auto &topo = net.topology();
    const auto &prm = net.params();
    nPorts = topo.numPorts(id);
    kind_ = prm.routerKind;

    ports_.resize(static_cast<std::size_t>(nPorts));
    vcs_.resize(static_cast<std::size_t>(nPorts) * numVcs);
    vcQ.resize(static_cast<std::size_t>(nPorts) * numVcs);
    occupied.assign(static_cast<std::size_t>(nPorts), 0);

    for (int p = 0; p < nPorts; ++p) {
        topo::Port link = topo.port(id, p);
        PortState &ps = ports_[std::size_t(p)];
        ps.connected = link.connected();
        if (!ps.connected)
            continue;
        ps.wireCycles = prm.wireCycles(link.kind);
        for (int vc = 0; vc < numVcs; ++vc)
            vcs_[slot(p, vc)].credits = vcCapacity(vc);
    }

    if (kind_ == RouterKind::Buffered) {
        gs_assert(prm.escapeVcFlits >= dataFlits &&
                      prm.adaptiveVcFlits >= dataFlits,
                  "VC buffers must hold a whole data packet "
                  "(cut-through)");
    }
}

void
Router::receive(int in_port, int vc, PacketHandle h)
{
    Packet &pkt = net.poolOf(id).get(h);
    pkt.hops += 1;
    // Latency x-ray: link transit ends here; buffered time counts as
    // VC-arbitration wait. At the destination the packet keeps
    // accumulating Link until the node takes delivery (ejection and
    // the local hop fold into Link). Reply-path spans (phase 1)
    // attribute their whole return to Reply, so only phase 0 hooks.
    if (pkt.span.id != 0 && pkt.span.phase == 0 && pkt.dst != id)
        pkt.span.advance(net.ctxOf(id).now(), trace::VcWait);
    if (kind_ == RouterKind::Bufferless) {
        // Credit flow control guarantees the latch was free: the
        // upstream only grants with a latch credit in hand.
        gs_assert(vc == 0 && vcQ[slot(in_port, vc)].empty(),
                  "bufferless latch overrun at node ", id, " port ",
                  in_port);
    }
    VcState &v = vcs_[slot(in_port, vc)];
    v.flitsUsed += pkt.flits;
    v.recvFlits += static_cast<std::uint64_t>(pkt.flits);
    vcQ[slot(in_port, vc)].push(h);
    occupied[static_cast<std::size_t>(in_port)] |= vcBit(vc);
    buffered += 1;
    frozen = false;
    net.activate(id);
}

void
Router::creditReturn(int out_port, int vc, int flits)
{
    auto &credits = vcs_[slot(out_port, vc)].credits;
    credits += flits;
    // A credit that was on the wire across a link repair arrives on
    // top of the resynced count; clamp rather than overflow the
    // downstream buffer. Healthy fabrics never hit this.
    if (net.degraded() && credits > vcCapacity(vc))
        credits = vcCapacity(vc);
    frozen = false;
    net.activate(id);
}

int
Router::vcCapacity(int vc) const
{
    if (kind_ == RouterKind::Bufferless)
        return vc == 0 ? 1 : 0;
    const auto &prm = net.params();
    return vc % vcSubCount == vcAdaptive ? prm.adaptiveVcFlits
                                         : prm.escapeVcFlits;
}

void
Router::syncPorts()
{
    gs_assert(kind_ == RouterKind::Buffered,
              "fault injection requires the buffered router backend");
    // Every fault apply ends here, on every router: routes may have
    // changed even where this router's own links did not.
    frozen = false;
    const auto &topo = net.topology();
    const auto &prm = net.params();
    for (int p = 0; p < nPorts; ++p) {
        topo::Port link = topo.port(id, p);
        PortState &ps = ports_[std::size_t(p)];
        if (ps.connected == link.connected())
            continue;
        ps.connected = link.connected();
        if (!ps.connected)
            continue;
        // Reconnected (repair, or the peer router came back): the
        // peer's input buffers kept their contents, so our credit
        // view restarts at capacity minus what is still buffered
        // there. busyUntil is stale by at most one transfer.
        ps.wireCycles = prm.wireCycles(link.kind);
        ps.busyUntil = 0;
        const Router &peer = net.router(link.peer);
        for (int vc = 0; vc < numVcs; ++vc) {
            vcs_[slot(p, vc)].credits =
                vcCapacity(vc) - peer.vcOccupancy(link.peerPort, vc);
        }
    }
}

void
Router::flushAll()
{
    frozen = false;
    for (int p = 0; p < nPorts; ++p) {
        for (int vc = 0; vc < numVcs; ++vc) {
            auto &q = vcQ[slot(p, vc)];
            while (!q.empty()) {
                PacketHandle h = popHead(p, vc);
                net.dropPacket(id, h, "node-failure");
            }
        }
    }
    for (PacketHandle h : sideQ_) {
        net.dropPacket(id, h, "node-failure");
        buffered -= 1;
    }
    sideQ_.clear();
    for (auto &q : injQs) {
        while (!q.empty()) {
            net.dropPacket(id, q.front(), "node-failure");
            q.pop();
            injWaiting -= 1;
        }
    }
}

void
Router::registerTelemetry(telem::Registry &reg,
                          const std::string &prefix,
                          const std::function<std::string(int)>
                              &port_name)
{
    for (int p = 0; p < nPorts; ++p) {
        PortState &ps = ports_[std::size_t(p)];
        if (!ps.connected)
            continue;
        const std::string pp =
            telem::path(prefix, "port", port_name(p));
        reg.addCounter(pp + ".flits", ps.sentFlits);
        reg.addCounter(pp + ".packets", ps.sentPackets);
        reg.addGauge(pp + ".busy_frac", [this, p] {
            Tick now = net.ctxOf(id).now();
            if (now <= statsWindowStart)
                return 0.0;
            double f = static_cast<double>(sentFlits(p)) *
                       static_cast<double>(net.period()) /
                       static_cast<double>(now - statsWindowStart);
            return std::min(f, 1.0);
        });
        // Input-side VC stats of the same port (the buffers facing
        // the neighbour this port points at).
        for (int vc = 0; vc < numVcs; ++vc) {
            const std::string vp = telem::path(pp, "vc", vc);
            reg.addCounter(vp + ".flits", vcs_[slot(p, vc)].recvFlits);
            reg.addCounter(vp + ".stalls",
                           vcs_[slot(p, vc)].creditStalls);
        }
    }
    for (int cls = 0; cls < numClasses; ++cls) {
        const std::string cp = telem::path(
            prefix, "inj", msgClassName(static_cast<MsgClass>(cls)));
        reg.addCounter(cp + ".stalls",
                       injStalls[static_cast<std::size_t>(cls)]);
        reg.addGauge(cp + ".depth", [this, cls] {
            return static_cast<double>(
                injQs[static_cast<std::size_t>(cls)].size());
        });
    }
}

void
Router::clearStats(Tick now)
{
    for (PortState &ps : ports_)
        ps.sentFlits = ps.sentPackets = 0;
    for (VcState &v : vcs_)
        v.recvFlits = v.creditStalls = 0;
    injStalls.fill(0);
    deflections_ = 0;
    latchStalls_ = 0;
    retreats_ = 0;
    statsWindowStart = now;
}

bool
Router::oldestBuffered(Packet &out) const
{
    const PacketPool &pool = net.poolOf(id);
    bool found = false;
    auto consider = [&](PacketHandle h) {
        const Packet &pkt = pool.get(h);
        if (!found || pkt.injected < out.injected) {
            out = pkt;
            found = true;
        }
    };
    for (const auto &q : vcQ)
        for (PacketHandle h : q)
            consider(h);
    for (PacketHandle h : sideQ_)
        consider(h);
    for (const auto &q : injQs)
        for (PacketHandle h : q)
            consider(h);
    return found;
}

void
Router::inject(PacketHandle h)
{
    const Packet &pkt = net.poolOf(id).get(h);
    injQs[static_cast<std::size_t>(pkt.cls)].push(h);
    injWaiting += 1;
    frozen = false;
    net.activate(id);
}

bool
Router::chooseRoute(const Packet &pkt, Route &route,
                    bool &unroutable) const
{
    const auto &topo = net.topology();

    // Adaptive first: pick the minimal direction with the most free
    // downstream credits ("a message can choose the less congested
    // minimal path").
    if (net.params().adaptiveEnabled && mayAdapt(pkt.cls)) {
        int vc = vcIndex(pkt.cls, vcAdaptive);
        int bestPort = -1, bestCredits = -1;
        for (int p : topo.adaptivePorts(id, pkt.dst, pkt.hops)) {
            int credits = vcs_[slot(p, vc)].credits;
            if (credits >= pkt.flits && credits > bestCredits) {
                bestCredits = credits;
                bestPort = p;
            }
        }
        if (bestPort >= 0) {
            route = Route{bestPort, vc};
            return true;
        }
    }

    // Escape: the deadlock-free channel is always routable; it may
    // just lack credits right now, in which case the packet waits.
    topo::EscapeHop esc = topo.escapeRoute(id, pkt.dst, 0);
    if (esc.port < 0) {
        // Only a degraded fabric may legitimately lose every route
        // to a destination; anywhere else it is a simulator bug.
        gs_assert(net.degraded(), "escape route missing at node ", id,
                  " for dst ", pkt.dst);
        unroutable = true;
        return false;
    }
    int vc = vcIndex(pkt.cls, esc.vc == 0 ? vcEscape0 : vcEscape1);
    if (vcs_[slot(esc.port, vc)].credits >= pkt.flits) {
        route = Route{esc.port, vc};
        return true;
    }
    return false;
}

PacketHandle
Router::popHead(int in_port, int vc)
{
    auto &q = vcQ[slot(in_port, vc)];
    gs_assert(!q.empty());
    PacketHandle h = q.front();
    q.pop();
    if (q.empty())
        occupied[static_cast<std::size_t>(in_port)] &=
            static_cast<VcMask>(~vcBit(vc));
    int flits = net.poolOf(id).get(h).flits;
    vcs_[slot(in_port, vc)].flitsUsed -= flits;
    buffered -= 1;
    // Freed buffer space becomes a credit at our upstream neighbour:
    // flits under buffered flow control, one latch slot under
    // bufferless.
    net.scheduleCredit(id, in_port, vc,
                       kind_ == RouterKind::Bufferless ? 1 : flits);
    return h;
}

void
Router::ejectPass(Tick now)
{
    (void)now;
    const PacketPool &pool = net.poolOf(id);
    // Only occupied VCs, in ascending order. Iterating a snapshot of
    // the mask is exact: popHead can clear only the bit of the VC
    // being drained, and arrivals are events, never synchronous.
    for (int p = 0; p < nPorts; ++p) {
        for (unsigned m = occupied[static_cast<std::size_t>(p)]; m != 0;
             m &= m - 1) {
            const int vc = std::countr_zero(m);
            auto &q = vcQ[slot(p, vc)];
            while (!q.empty() && pool.get(q.front()).dst == id) {
                PacketHandle h = popHead(p, vc);
                net.deliverLocal(id, h);
            }
        }
    }
}

void
Router::nominate(Tick now)
{
    noms.clear();
    stalledSlots.clear();
    stalledInj = 0;
    wakeAt = maxTick;
    bool dropped = false;
    PacketPool &pool = net.poolOf(id);

    // Network input ports: one nominee each, round-robin over VCs.
    // Heads whose destination lost every route (degraded fabric) are
    // dropped on the spot: waiting cannot bring the route back.
    //
    // The occupancy mask rotated right by the RR pointer has bit k
    // set iff VC (rr + k) % numVcs is non-empty, so walking its set
    // bits upward visits exactly the non-empty VCs of the full
    // round-robin scan, in the same order; the empty ones it skips
    // had no effect there.
    constexpr unsigned allVcs = (1u << numVcs) - 1;
    for (int p = 0; p < nPorts; ++p) {
        const unsigned occ = occupied[static_cast<std::size_t>(p)];
        if (occ == 0)
            continue;
        const int rr = ports_[std::size_t(p)].rrVc;
        const unsigned rot =
            ((occ >> rr) | (occ << (numVcs - rr))) & allVcs;
        for (unsigned m = rot; m != 0; m &= m - 1) {
            const int vc = (rr + std::countr_zero(m)) % numVcs;
            auto &q = vcQ[slot(p, vc)];
            Route route;
            bool nominated = false;
            while (!q.empty()) {
                bool unroutable = false;
                if (chooseRoute(pool.get(q.front()), route,
                                unroutable)) {
                    nominated = true;
                    break;
                }
                if (!unroutable) {
                    vcs_[slot(p, vc)].creditStalls += 1;
                    stalledSlots.push_back(
                        static_cast<std::uint32_t>(slot(p, vc)));
                    break;
                }
                PacketHandle h = popHead(p, vc);
                net.dropPacket(id, h, "unroutable");
                dropped = true;
            }
            if (!nominated)
                continue;
            const Tick busy = ports_[std::size_t(route.outPort)].busyUntil;
            if (busy > now) {
                wakeAt = std::min(wakeAt, busy);
                continue;
            }
            noms.push_back(Nominee{p, vc, route});
            ports_[std::size_t(p)].rrVc = (vc + 1) % numVcs;
            break;
        }
    }

    // Injection: one nominee, round-robin over message classes.
    for (int k = 0; k < numClasses; ++k) {
        int cls = (injRrClass + k) % numClasses;
        auto &q = injQs[static_cast<std::size_t>(cls)];
        Route route;
        bool nominated = false;
        while (!q.empty()) {
            bool unroutable = false;
            if (chooseRoute(pool.get(q.front()), route, unroutable)) {
                nominated = true;
                break;
            }
            if (!unroutable) {
                injStalls[static_cast<std::size_t>(cls)] += 1;
                stalledInj |= 1u << cls;
                break;
            }
            net.dropPacket(id, q.front(), "unroutable");
            q.pop();
            injWaiting -= 1;
            dropped = true;
        }
        if (!nominated)
            continue;
        const Tick busy = ports_[std::size_t(route.outPort)].busyUntil;
        if (busy > now) {
            wakeAt = std::min(wakeAt, busy);
            continue;
        }
        noms.push_back(Nominee{-1, cls, route});
        injRrClass = (cls + 1) % numClasses;
        break;
    }

    // Nothing nominated and nothing dropped: every input the next
    // ticks read is unchanged until a thaw event or wakeAt.
    frozen = noms.empty() && !dropped;
}

void
Router::grant(Tick now)
{
    const auto &topo = net.topology();
    const auto &prm = net.params();
    PacketPool &pool = net.poolOf(id);
    const int srcSlots = nPorts + 1;

    for (int o = 0; o < nPorts; ++o) {
        PortState &out = ports_[std::size_t(o)];
        if (!out.connected || out.busyUntil > now)
            continue;

        // Global arbiter: round-robin over nominating sources
        // (network inputs 0..P-1, injection as slot P).
        const Nominee *winner = nullptr;
        int bestRank = srcSlots;
        for (const auto &nom : noms) {
            if (nom.route.outPort != o)
                continue;
            int src = nom.inPort < 0 ? srcSlots - 1 : nom.inPort;
            int rank = (src - out.rrSrc + srcSlots) % srcSlots;
            if (rank < bestRank) {
                bestRank = rank;
                winner = &nom;
            }
        }
        if (!winner)
            continue;

        PacketHandle h;
        if (winner->inPort < 0) {
            auto &q = injQs[static_cast<std::size_t>(winner->vc)];
            h = q.front();
            q.pop();
            injWaiting -= 1;
        } else {
            h = popHead(winner->inPort, winner->vc);
        }
        Packet &pkt = pool.get(h);

        // Latency x-ray: the grant closes the injection wait (source
        // router) or the VC wait (intermediate hop); the packet is on
        // the link from here.
        if (pkt.span.id != 0 && pkt.span.phase == 0)
            pkt.span.advance(now, trace::Link);

        int vc = winner->route.outVc;
        int &credits = vcs_[slot(o, vc)].credits;
        credits -= pkt.flits;
        gs_assert(credits >= 0, "credit underflow at node ", id,
                  " port ", o);
        out.busyUntil = now + static_cast<Tick>(pkt.flits) * net.period();
        out.sentFlits += static_cast<std::uint64_t>(pkt.flits);
        out.sentPackets += 1;
        out.rrSrc =
            ((winner->inPort < 0 ? srcSlots - 1 : winner->inPort) + 1) %
            srcSlots;

        topo::Port link = topo.port(id, o);
        // Cut-through: the header is routable downstream after the
        // pipeline + wire + header cycles; the body streams behind
        // it at link rate (the link stays busy for the full length,
        // and ejection waits for the tail). Store-and-forward (the
        // ablation) waits for the whole packet at every hop.
        int delay = prm.pipelineCycles + out.wireCycles +
                    (prm.cutThrough ? std::min(pkt.flits, headerFlits)
                                    : pkt.flits);
        net.scheduleArrival(id, link.peer, link.peerPort, vc, h, delay);
    }
}

bool
Router::portFree(int port, Tick now) const
{
    const PortState &ps = ports_[std::size_t(port)];
    return ps.connected && ps.busyUntil <= now &&
           vcs_[slot(port, 0)].credits >= 1;
}

bool
Router::creditBlocked(Tick now) const
{
    for (int p = 0; p < nPorts; ++p) {
        const PortState &ps = ports_[std::size_t(p)];
        if (ps.connected && ps.busyUntil <= now &&
            vcs_[slot(p, 0)].credits == 0)
            return true;
    }
    return false;
}

int
Router::pickBufferlessPort(const Packet &pkt, bool allow_deflect,
                           Tick now, bool &deflected) const
{
    deflected = false;
    const auto &topo = net.topology();
    // Productive first: the lowest-indexed free minimal port. No
    // credit-count tiebreak — latch credits are 0/1, so "free" is
    // binary and the fixed index order keeps arbitration cheap and
    // deterministic.
    topo::PortSet minimal = topo.adaptivePorts(id, pkt.dst, pkt.hops);
    for (int p : minimal)
        if (portFree(p, now))
            return p;
    if (!allow_deflect)
        return -1;
    // Deflect: any free port will do; the packet pays the extra hops
    // instead of waiting for a buffer it does not have.
    for (int p = 0; p < nPorts; ++p) {
        bool isMinimal = false;
        for (int m : minimal)
            isMinimal = isMinimal || m == p;
        if (!isMinimal && portFree(p, now)) {
            deflected = true;
            return p;
        }
    }
    return -1;
}

void
Router::sendBufferless(PacketHandle h, int out_port, Tick now)
{
    const auto &topo = net.topology();
    const auto &prm = net.params();
    Packet &pkt = net.poolOf(id).get(h);

    // Latency x-ray: same attribution as a buffered grant — the
    // packet leaves arbitration and goes on the link here.
    if (pkt.span.id != 0 && pkt.span.phase == 0)
        pkt.span.advance(now, trace::Link);

    auto &credit = vcs_[slot(out_port, 0)].credits;
    credit -= 1;
    gs_assert(credit >= 0, "latch credit underflow at node ", id,
              " port ", out_port);
    PortState &out = ports_[std::size_t(out_port)];
    out.busyUntil = now + static_cast<Tick>(pkt.flits) * net.period();
    out.sentFlits += static_cast<std::uint64_t>(pkt.flits);
    out.sentPackets += 1;

    topo::Port link = topo.port(id, out_port);
    int delay = prm.pipelineCycles + out.wireCycles +
                (prm.cutThrough ? std::min(pkt.flits, headerFlits)
                                : pkt.flits);
    net.scheduleArrival(id, link.peer, link.peerPort, 0, h, delay);
}

void
Router::tickBufferless(Tick now)
{
    PacketPool &pool = net.poolOf(id);

    // Rank every resident packet — latch heads and side-buffered
    // retreats together — oldest-first: (injection tick, packet id)
    // plus a structural tie-break is a total order, identical no
    // matter which engine or thread count runs this tick. Age
    // priority is the livelock argument — the globally oldest packet
    // outranks every rival at any router it shares a tick with, so
    // it claims a minimal port whenever one is free and is never
    // displaced by younger traffic.
    ranks_.clear();
    for (int p = 0; p < nPorts; ++p) {
        auto &q = vcQ[slot(p, 0)];
        if (q.empty())
            continue;
        const Packet &pkt = pool.get(q.front());
        ranks_.push_back(LatchRank{pkt.injected, pkt.id, p, false, 0});
    }
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(sideQ_.size()); ++i) {
        const Packet &pkt = pool.get(sideQ_[i]);
        ranks_.push_back(LatchRank{pkt.injected, pkt.id, -1, true, i});
    }
    std::sort(ranks_.begin(), ranks_.end(),
              [](const LatchRank &a, const LatchRank &b) {
                  if (a.injected != b.injected)
                      return a.injected < b.injected;
                  if (a.pktId != b.pktId)
                      return a.pktId < b.pktId;
                  // Packet ids are caller-assigned and may tie (raw
                  // Network tests leave them 0); latches before side
                  // slots, then the unique port / slot index, keeps
                  // the order total.
                  if (a.side != b.side)
                      return !a.side;
                  return a.side ? a.sideIdx < b.sideIdx
                                : a.port < b.port;
              });

    bool sideSent = false;
    for (const LatchRank &lr : ranks_) {
        PacketHandle h = lr.side ? sideQ_[lr.sideIdx]
                                 : vcQ[slot(lr.port, 0)].front();
        Packet &pkt = pool.get(h);
        bool deflected = false;
        // Escalated packets (misroute budget spent) wait for a
        // productive port instead of deflecting again; this caps
        // per-packet deflections and breaks deterministic
        // deflection orbits (file header).
        const bool mayDeflect =
            pkt.deflections < static_cast<int>(kDeflectionEscalation);
        int out = pickBufferlessPort(pkt, mayDeflect, now, deflected);
        if (out < 0) {
            if (lr.side)
                continue; // already out of the way; wait in place
            if (creditBlocked(now)) {
                // An idle output with a full downstream latch can be
                // one edge of a cycle of latches all waiting on each
                // other — the one deadlock this design can reach.
                // Vacate: the packet parks in the side buffer and
                // the freed latch credit goes upstream, so the cycle
                // cannot close. popHead hands back the credit;
                // residency here is unchanged.
                popHead(lr.port, 0);
                buffered += 1;
                sideQ_.push_back(h);
                retreats_ += 1;
            } else {
                // Every output mid-transfer: resolves by itself
                // within one packet length; hold the latch.
                latchStalls_ += 1;
            }
            continue;
        }
        if (deflected) {
            deflections_ += 1;
            pkt.deflections += 1;
        }
        if (lr.side) {
            sideQ_[lr.sideIdx] = invalidHandle;
            sideSent = true;
            buffered -= 1;
        } else {
            popHead(lr.port, 0);
        }
        sendBufferless(h, out, now);
    }
    if (sideSent)
        sideQ_.erase(std::remove(sideQ_.begin(), sideQ_.end(),
                                 invalidHandle),
                     sideQ_.end());

    // Injection joins last and never deflects: a new packet enters
    // the mesh only through a productive port, which bounds the work
    // in flight and keeps sources from flooding a congested
    // neighbourhood with guaranteed-misrouted traffic.
    for (int k = 0; k < numClasses; ++k) {
        int cls = (injRrClass + k) % numClasses;
        auto &q = injQs[static_cast<std::size_t>(cls)];
        if (q.empty())
            continue;
        PacketHandle h = q.front();
        const Packet &pkt = pool.get(h);
        bool deflected = false;
        int out = pickBufferlessPort(pkt, /*allow_deflect=*/false, now,
                                     deflected);
        if (out < 0) {
            injStalls[static_cast<std::size_t>(cls)] += 1;
            continue;
        }
        q.pop();
        injWaiting -= 1;
        sendBufferless(h, out, now);
        injRrClass = (cls + 1) % numClasses;
        break;
    }
}

void
Router::tick(Tick now)
{
    if (idle())
        return;
    if (frozen && now < wakeAt) {
        // The full tick would re-decide the same blocked heads; its
        // only side effect is this cycle's stall counts.
        for (std::uint32_t s : stalledSlots)
            vcs_[s].creditStalls += 1;
        for (unsigned m = stalledInj; m != 0; m &= m - 1)
            injStalls[static_cast<std::size_t>(std::countr_zero(m))] += 1;
        return;
    }
    frozen = false;
    ejectPass(now);
    if (buffered == 0 && injWaiting == 0)
        return;
    if (kind_ == RouterKind::Bufferless) {
        tickBufferless(now);
        return;
    }
    nominate(now);
    if (!noms.empty())
        grant(now);
}

void
Router::saveCkpt(ckpt::Serializer &s) const
{
    s.put32(static_cast<std::uint32_t>(vcQ.size()));
    for (const HandleQueue &q : vcQ)
        q.saveCkpt(s);
    for (const VcState &v : vcs_) {
        s.putI32(v.flitsUsed);
        s.put64(v.recvFlits);
        s.put64(v.creditStalls);
    }
    s.put32(static_cast<std::uint32_t>(nPorts));
    for (const PortState &ps : ports_)
        s.putI32(ps.rrVc);
    s.put32(static_cast<std::uint32_t>(nPorts));
    for (int p = 0; p < nPorts; ++p) {
        const PortState &ps = ports_[std::size_t(p)];
        s.putBool(ps.connected);
        for (int vc = 0; vc < numVcs; ++vc)
            s.putI32(vcs_[slot(p, vc)].credits);
        s.put64(ps.busyUntil);
        s.putI32(ps.wireCycles);
        s.putI32(ps.rrSrc);
        s.put64(ps.sentFlits);
        s.put64(ps.sentPackets);
    }
    for (const HandleQueue &q : injQs)
        q.saveCkpt(s);
    for (std::uint64_t v : injStalls)
        s.put64(v);
    s.putI32(injRrClass);
    s.put64(statsWindowStart);
    s.putI32(buffered);
    s.putI32(injWaiting);
    s.put64(deflections_);
    s.put64(latchStalls_);
    s.put64(retreats_);
    s.put32(static_cast<std::uint32_t>(sideQ_.size()));
    for (PacketHandle h : sideQ_)
        s.put32(h);
}

void
Router::restoreCkpt(ckpt::Deserializer &d)
{
    frozen = false; // derived state, never saved
    if (d.get32() != vcQ.size() && d.ok()) {
        d.fail("router VC queue count mismatch");
        return;
    }
    for (HandleQueue &q : vcQ)
        q.restoreCkpt(d);
    // The occupancy mask is derived from the queues, never saved.
    for (int p = 0; p < nPorts; ++p) {
        VcMask occ = 0;
        for (int vc = 0; vc < numVcs; ++vc)
            if (!vcQ[slot(p, vc)].empty())
                occ |= vcBit(vc);
        occupied[static_cast<std::size_t>(p)] = occ;
    }
    for (VcState &v : vcs_) {
        v.flitsUsed = d.getI32();
        v.recvFlits = d.get64();
        v.creditStalls = d.get64();
    }
    if (d.get32() != static_cast<std::uint32_t>(nPorts) && d.ok()) {
        d.fail("router port count mismatch");
        return;
    }
    for (PortState &ps : ports_)
        ps.rrVc = d.getI32();
    if (d.get32() != static_cast<std::uint32_t>(nPorts) && d.ok()) {
        d.fail("router output count mismatch");
        return;
    }
    for (int p = 0; p < nPorts; ++p) {
        PortState &ps = ports_[std::size_t(p)];
        ps.connected = d.getBool();
        for (int vc = 0; vc < numVcs; ++vc)
            vcs_[slot(p, vc)].credits = d.getI32();
        ps.busyUntil = d.get64();
        ps.wireCycles = d.getI32();
        ps.rrSrc = d.getI32();
        ps.sentFlits = d.get64();
        ps.sentPackets = d.get64();
    }
    for (HandleQueue &q : injQs)
        q.restoreCkpt(d);
    for (std::uint64_t &v : injStalls)
        v = d.get64();
    injRrClass = d.getI32();
    statsWindowStart = d.get64();
    buffered = d.getI32();
    injWaiting = d.getI32();
    deflections_ = d.get64();
    latchStalls_ = d.get64();
    retreats_ = d.get64();
    sideQ_.clear();
    const std::uint32_t nSide = d.get32();
    for (std::uint32_t i = 0; i < nSide && d.ok(); ++i)
        sideQ_.push_back(d.get32());

    // Every queued handle must name a live packet of this router's
    // pool; anything else would index past it or alias a free slot.
    const PacketPool &pool = net.poolOf(id);
    auto held = [&pool](const auto &q) {
        return std::all_of(q.begin(), q.end(), [&pool](PacketHandle h) {
            return pool.holds(h);
        });
    };
    bool ok = held(sideQ_);
    for (const HandleQueue &q : vcQ)
        ok = ok && held(q);
    for (const HandleQueue &q : injQs)
        ok = ok && held(q);
    if (d.ok() && !ok) {
        d.fail("snapshot corrupt: router " + std::to_string(id) +
               " queues a packet handle its pool does not hold");
    }
}

} // namespace gs::net
