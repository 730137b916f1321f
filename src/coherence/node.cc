#include "coherence/node.hh"

#include <algorithm>

#include "coherence/tracer.hh"
#include "sim/logging.hh"

namespace gs::coher
{

CoherentNode::CoherentNode(SimContext &context, net::Network &network,
                           NodeId node, const mem::AddressMap &addr_map,
                           NodeConfig config)
    : ctx(context), net_(network), self(node), map(addr_map),
      cfg(config)
{
    gs_assert(cfg.sharerGroupSize >= 1 &&
                  (net_.topology().numNodes() + cfg.sharerGroupSize -
                   1) / cfg.sharerGroupSize <=
                      64,
              "sharer groups overflow the 64-bit vector");
    if (cfg.hasCache)
        cache = std::make_unique<mem::Cache>(cfg.l2);
    if (cfg.hasMemory) {
        for (int i = 0; i < cfg.zboxCount; ++i)
            zboxes.push_back(std::make_unique<mem::Zbox>(ctx, cfg.zbox));
    }
    net_.setHandler(self,
                    [this](const net::Packet &pkt) { onPacket(pkt); });
}

void
CoherentNode::clearStats()
{
    st = NodeStats{};
    if (cache)
        cache->clearStats();
    for (auto &z : zboxes)
        z->clearStats();
}

void
CoherentNode::registerTelemetry(telem::Registry &reg,
                                const std::string &prefix)
{
    reg.addCounter(telem::path(prefix, "accesses"), st.accesses);
    reg.addCounter(telem::path(prefix, "l2_hits"), st.l2Hits);
    reg.addCounter(telem::path(prefix, "misses"), st.misses);
    reg.addCounter(telem::path(prefix, "maf_merges"), st.mafMerges);
    reg.addCounter(telem::path(prefix, "home_requests"),
                   st.homeRequests);
    reg.addCounter(telem::path(prefix, "forwards_served"),
                   st.forwardsServed);
    reg.addCounter(telem::path(prefix, "invals_received"),
                   st.invalsReceived);
    reg.addCounter(telem::path(prefix, "victims_sent"),
                   st.victimsSent);
    reg.addCounter(telem::path(prefix, "vb_high_water"),
                   st.vbHighWater);
    reg.addAverage(telem::path(prefix, "miss_latency_ns"),
                   st.missLatencyNs);
    reg.addGauge(telem::path(prefix, "maf_outstanding"), [this] {
        return static_cast<double>(maf.size());
    });
    reg.addGauge(telem::path(prefix, "victim_buffer_fill"), [this] {
        return static_cast<double>(vb.size());
    });
    for (int t = 0; t < numMsgTypes; ++t) {
        const char *name = msgTypeName(static_cast<MsgType>(t));
        reg.addCounter(telem::path(prefix, "proto", "sent", name),
                       st.msgSent[static_cast<std::size_t>(t)]);
        reg.addCounter(telem::path(prefix, "proto", "recv", name),
                       st.msgRecv[static_cast<std::size_t>(t)]);
    }
    for (std::size_t z = 0; z < zboxes.size(); ++z)
        zboxes[z]->registerTelemetry(reg,
                                     telem::path(prefix, "mem", z));
}

double
CoherentNode::memUtilization(Tick window_start, Tick now) const
{
    if (zboxes.empty())
        return 0.0;
    double sum = 0;
    for (const auto &z : zboxes)
        sum += z->utilization(window_start, now);
    return sum / static_cast<double>(zboxes.size());
}

bool
CoherentNode::quiesced() const
{
    // A dirTxns record outlives a transaction only while its line is
    // Busy or has queued requests (finishTxn reclaims it otherwise),
    // so an empty side table plus no Busy line is the whole-directory
    // condition.
    const bool idle = maf.empty() && vb.empty() && pendingCore.empty() &&
                      busyLines == 0 && dirTxns.empty();
#ifndef NDEBUG
    if (idle) {
        std::size_t busy = 0;
        dir.forEach([&](mem::Addr, const DirEntry &e) {
            busy += e.state == DirState::Busy;
        });
        gs_assert(busy == busyLines, "busy-line counter ", busyLines,
                  " disagrees with the directory (", busy, ")");
    }
#endif
    return idle;
}

void
CoherentNode::setDirState(DirEntry &e, DirState s)
{
    busyLines += (s == DirState::Busy);
    busyLines -= (e.state == DirState::Busy);
    e.state = s;
}

DirState
CoherentNode::dirState(mem::Addr line) const
{
    const DirEntry *e = dir.find(mem::lineOf(line));
    return e ? e->state : DirState::Invalid;
}

std::uint64_t
CoherentNode::dirSharers(mem::Addr line) const
{
    const DirEntry *e = dir.find(mem::lineOf(line));
    return e ? e->sharers : 0;
}

NodeId
CoherentNode::dirOwner(mem::Addr line) const
{
    const DirEntry *e = dir.find(mem::lineOf(line));
    return e ? e->owner : invalidNode;
}

std::vector<mem::Addr>
CoherentNode::dirLines() const
{
    std::vector<mem::Addr> lines;
    dir.forEach([&](mem::Addr line, const DirEntry &e) {
        if (e.state != DirState::Invalid)
            lines.push_back(line);
    });
    std::sort(lines.begin(), lines.end());
    return lines;
}

namespace
{

/**
 * Heap estimate for a node-based unordered_map: one bucket pointer
 * per bucket plus, per element, the value and the node's link +
 * cached hash.
 */
template <typename M>
std::size_t
mapBytes(const M &m)
{
    return m.bucket_count() * sizeof(void *) +
           m.size() *
               (sizeof(typename M::value_type) + 2 * sizeof(void *));
}

/** mapBytes() of a node-based map holding @p n values of @p bytes
 *  each at load factor 1 (one bucket per element). */
constexpr std::size_t
nodeMapBytes(std::size_t n, std::size_t bytes)
{
    return n * (bytes + 3 * sizeof(void *));
}

} // namespace

std::size_t
CoherentNode::footprintBytes() const
{
    std::size_t b = sizeof(*this);
    if (cache)
        b += cache->footprintBytes();
    for (const auto &z : zboxes)
        b += z->footprintBytes();
    b += mapBytes(maf) + vb.bytes() + dir.bytes() + dirTxns.bytes();
    dirTxns.forEach([&](mem::Addr, const DirTxn &txn) {
        b += txn.pending.size() * sizeof(Msg);
    });
    b += pendingCore.size() *
         sizeof(std::tuple<mem::Addr, bool, ckpt::Cont>);
    return b;
}

std::size_t
CoherentNode::denseFootprintBytes() const
{
    std::size_t b = sizeof(*this);
    if (cache)
        b += cache->denseFootprintBytes();
    for (const auto &z : zboxes)
        b += z->denseFootprintBytes();
    // The dense layout kept the victim buffer and the directory in
    // node-based hash maps, and its directory entry carried the
    // transaction bookkeeping inline: hot fields padded to 32 bytes
    // plus a std::deque<Msg> whose libstdc++ constructor eagerly
    // allocates its pointer map (64 B) and one 512 B element chunk.
    constexpr std::size_t fatDirEntryBytes =
        32 + sizeof(std::deque<Msg>) + 64 + 512;
    b += mapBytes(maf) +
         nodeMapBytes(vb.size(),
                      sizeof(std::pair<const mem::Addr, VictimEntry>)) +
         nodeMapBytes(dir.size(), sizeof(mem::Addr) + fatDirEntryBytes);
    b += pendingCore.size() *
         sizeof(std::tuple<mem::Addr, bool, ckpt::Cont>);
    return b;
}

// ---------------------------------------------------------------------
// Network plumbing
// ---------------------------------------------------------------------

void
CoherentNode::send(MsgType type, NodeId dst, mem::Addr line,
                   NodeId requester, std::uint32_t aux)
{
    Msg m;
    m.type = type;
    m.line = line;
    m.requester = requester;
    m.aux = aux;
    st.msgSent[static_cast<std::size_t>(type)] += 1;
    net::Packet pkt = encode(m, self, dst);
    if (spans_)
        spanAttach(pkt, m);
    if (observer)
        observer(pkt, /*incoming=*/false);
    net_.inject(pkt);
}

// ---------------------------------------------------------------------
// Latency x-ray hooks (docs/TRACING.md)
// ---------------------------------------------------------------------

void
CoherentNode::spanAttach(net::Packet &pkt, const Msg &m)
{
    // Carrier messages are the ones that move a transaction between
    // nodes: the request to the home, a forward to the owner, and
    // the data response back. Everything else (invalidates, acks,
    // victim traffic) belongs to other transactions or is overlap
    // the requester never waits on alone.
    bool reply = false;
    switch (m.type) {
      case MsgType::RdReq:
      case MsgType::RdModReq:
        if (m.requester != self)
            return;
        break;
      case MsgType::FwdRd:
      case MsgType::FwdRdMod:
        break;
      case MsgType::BlkShared:
      case MsgType::BlkExclusive:
      case MsgType::BlkDirty:
        reply = true;
        break;
      default:
        return;
    }
    auto it = parked_.find({m.line, m.requester});
    if (it == parked_.end())
        return;
    trace::SpanState ss = it->second;
    parked_.erase(it);
    if (reply) {
        // The whole return trip (network, ack waits, fill overhead)
        // is attributed to Reply, so the routers stop splitting.
        ss.advance(ctx.now(), trace::Reply);
        ss.phase = 1;
    }
    pkt.span = ss;
}

void
CoherentNode::spanOnRecv(const net::Packet &pkt, const Msg &m)
{
    if (pkt.span.phase == 1) {
        // Response at the requester: keep accumulating Reply until
        // the fill completes; the span waits on the MAF entry.
        auto it = maf.find(m.line);
        if (it != maf.end())
            it->second.span = pkt.span;
        return;
    }
    // Request or forward arriving at the node that will service it:
    // close the network stage and park under directory occupancy
    // (queueing behind a busy line and owner service both count).
    trace::SpanState ss = pkt.span;
    ss.advance(ctx.now(), trace::Directory);
    parked_[{m.line, m.requester}] = ss;
}

void
CoherentNode::zboxReadSpan(mem::Addr line, NodeId req, ckpt::Cont done)
{
    if (spans_) {
        auto it = parked_.find({line, req});
        if (it != parked_.end()) {
            it->second.advance(ctx.now(), trace::Dram);
            mem::AccessBreakdown bd;
            zboxFor(line).read(line, std::move(done), bd);
            it->second.dramQueue += bd.queueWait;
            return;
        }
    }
    zboxFor(line).read(line, std::move(done));
}

void
CoherentNode::spanDramDone(mem::Addr line, NodeId req)
{
    if (!spans_)
        return;
    auto it = parked_.find({line, req});
    if (it != parked_.end() && it->second.stage == trace::Dram)
        it->second.advance(ctx.now(), trace::Directory);
}

void
CoherentNode::sendAfter(double delay_ns, MsgType type, NodeId dst,
                        mem::Addr line, NodeId requester,
                        std::uint32_t aux)
{
    post(delay_ns, ckpt::makeDesc(ckpt::CohSendMsg, self,
                                  static_cast<int>(type), dst, requester,
                                  line, aux));
}

void
CoherentNode::post(double delay_ns, const ckpt::EventDesc &d)
{
    ctx.queue().schedule(nsToTicks(delay_ns), d, [this, d] { fire(d); });
}

void
CoherentNode::onPacket(const net::Packet &pkt)
{
    if (pkt.cls == net::MsgClass::IO) {
        ioReceived += 1;
        if (ioSink)
            ioSink(pkt);
        return;
    }

    if (observer)
        observer(pkt, /*incoming=*/true);

    Msg m = decode(pkt);
    st.msgRecv[static_cast<std::size_t>(m.type)] += 1;
    if (pkt.span.id != 0)
        spanOnRecv(pkt, m);
    switch (m.type) {
      case MsgType::RdReq:
      case MsgType::RdModReq:
      case MsgType::VictimWB:
      case MsgType::VictimClean:
        gs_assert(cfg.hasMemory, "home request at memory-less node ",
                  self);
        st.homeRequests += 1;
        homeDispatch(m);
        break;
      case MsgType::FwdRd:
      case MsgType::FwdRdMod:
      case MsgType::Inval:
        handleForward(pkt);
        break;
      case MsgType::BlkShared:
      case MsgType::BlkExclusive:
      case MsgType::BlkDirty:
        handleResponse(m);
        break;
      case MsgType::WBShared:
      case MsgType::FwdAckClean:
      case MsgType::FwdAckTransfer:
        homeOwnerReply(m, senderOf(pkt));
        break;
      case MsgType::InvalAck:
        handleInvalAck(m);
        break;
      case MsgType::VictimAck:
        handleVictimAck(m);
        break;
    }
}

// ---------------------------------------------------------------------
// Cache side
// ---------------------------------------------------------------------

void
CoherentNode::memAccess(mem::Addr a, bool write, ckpt::Cont done)
{
    gs_assert(cfg.hasCache, "memAccess on cache-less node ", self);
    mem::Addr line = mem::lineOf(a);
    st.accesses += 1;

    auto access = cache->lookup(line, write);
    bool upgradeNeeded =
        write && access.hit && access.state == mem::LineState::Shared;

    if (access.hit && !upgradeNeeded) {
        if (write)
            cache->setState(line, mem::LineState::Modified);
        st.l2Hits += 1;
        if (done)
            ctx.queue().schedule(nsToTicks(cfg.l2.loadToUseNs),
                                 done.desc, std::move(done.fn));
        return;
    }

    st.misses += 1;

    auto it = maf.find(line);
    if (it != maf.end()) {
        MafEntry &entry = it->second;
        if (write && !entry.write) {
            // A write cannot merge into a read miss whose request is
            // already on the wire; retry once the read fill lands.
            entry.retries.emplace_back(true, std::move(done));
        } else {
            st.mafMerges += 1;
            if (done)
                entry.waiters.push_back(std::move(done));
        }
        return;
    }

    if (static_cast<int>(maf.size()) >= cfg.mafEntries) {
        pendingCore.emplace_back(line, write, std::move(done));
        return;
    }
    startMiss(line, write, std::move(done));
}

void
CoherentNode::startMiss(mem::Addr line, bool write, ckpt::Cont done)
{
    MafEntry entry;
    entry.write = write;
    entry.issued = ctx.now();
    if (done)
        entry.waiters.push_back(std::move(done));
    maf.emplace(line, std::move(entry));

    if (spans_) {
        if (std::uint64_t sid = spans_->sampleMiss(self)) {
            trace::SpanState ss;
            ss.id = sid;
            ss.begin = ctx.now();
            ss.mark = ctx.now();
            ss.stage = trace::Inject;
            parked_[{line, self}] = ss;
        }
    }

    NodeId home = map.home(line).node;
    // The miss is detected after the L2 tag lookup.
    sendAfter(cfg.l2.loadToUseNs,
              write ? MsgType::RdModReq : MsgType::RdReq, home, line,
              self);
}

void
CoherentNode::handleResponse(const Msg &m)
{
    auto it = maf.find(m.line);
    gs_assert(it != maf.end(), "response without MAF entry, node ",
              self);
    MafEntry &entry = it->second;

    switch (m.type) {
      case MsgType::BlkShared:
        gs_assert(!entry.write, "shared fill for a write miss");
        entry.fillState = mem::LineState::Shared;
        break;
      case MsgType::BlkExclusive:
        entry.fillState = entry.write ? mem::LineState::Modified
                                      : mem::LineState::Exclusive;
        break;
      case MsgType::BlkDirty:
        entry.fillState = entry.write ? mem::LineState::Modified
                                      : mem::LineState::Shared;
        break;
      default:
        gs_panic("bad response type");
    }
    entry.acksNeeded = static_cast<int>(m.aux);
    entry.dataArrived = true;
    tryComplete(m.line);
}

void
CoherentNode::handleInvalAck(const Msg &m)
{
    auto it = maf.find(m.line);
    gs_assert(it != maf.end(), "InvalAck without MAF entry");
    it->second.acksGot += 1;
    tryComplete(m.line);
}

void
CoherentNode::tryComplete(mem::Addr line)
{
    auto it = maf.find(line);
    gs_assert(it != maf.end());
    MafEntry &entry = it->second;
    if (!entry.dataArrived || entry.acksNeeded < 0 ||
        entry.acksGot < entry.acksNeeded)
        return;

    finishFill(line);
}

void
CoherentNode::finishFill(mem::Addr line)
{
    auto it = maf.find(line);
    gs_assert(it != maf.end());
    MafEntry entry = std::move(it->second);
    maf.erase(it);

    st.missLatencyNs.sample(ticksToNs(ctx.now() - entry.issued));

    if (spans_ && entry.span.id != 0) {
        // Close the Reply stage at the same instant missLatencyNs
        // samples, so a span's stage sum equals the measured
        // end-to-end miss latency exactly.
        entry.span.advance(ctx.now(), trace::Reply);
        spans_->complete(self, entry.span, ctx.now());
    }

    if (entry.invalWhilePending && !entry.write) {
        // The line was invalidated under us (response/forward class
        // reordering). Complete the waiting accesses with the data
        // but do not retain the line.
    } else if (cache->contains(line)) {
        // Write upgrade: the Shared copy is still resident.
        cache->setState(line, entry.fillState);
    } else {
        mem::Victim victim = cache->fill(line, entry.fillState);
        evictIfNeeded(victim);
    }

    if (!entry.waiters.empty()) {
        // Park the waiters in fillBatches rather than capturing them
        // in the event: the batch id in the event's desc is all a
        // snapshot needs to re-attach the (serializable) group.
        const std::uint64_t id = nextFillBatch++;
        fillBatches.emplace(id, std::move(entry.waiters));
        post(cfg.fillOverheadNs,
             ckpt::makeDesc(ckpt::CohFillBatch, self, 0, 0, 0, id));
    }

    // Forwards that raced with the miss can be serviced now.
    for (const auto &pkt : entry.deferredFwds)
        handleForward(pkt);

    for (auto &[write, done] : entry.retries)
        memAccess(line, write, std::move(done));

    pumpPendingCore();
}

void
CoherentNode::evictIfNeeded(const mem::Victim &victim)
{
    if (!victim.valid())
        return;
    if (backInval)
        backInval(victim.line);
    if (victim.state == mem::LineState::Shared)
        return; // silent eviction; the directory may keep a stale bit

    st.victimsSent += 1;
    if (!vb.contains(victim.line))
        vb[victim.line].dirty = victim.dirty();
    st.vbHighWater = std::max(st.vbHighWater,
                              static_cast<std::uint64_t>(vb.size()));
    NodeId home = map.home(victim.line).node;
    send(victim.dirty() ? MsgType::VictimWB : MsgType::VictimClean,
         home, victim.line, self);
}

void
CoherentNode::handleForward(const net::Packet &pkt)
{
    Msg m = decode(pkt);
    mem::Addr line = m.line;

    if (auto it = maf.find(line); it != maf.end()) {
        if (m.type == MsgType::Inval) {
            it->second.invalWhilePending = true;
            if (cache->state(line) == mem::LineState::Shared) {
                cache->invalidate(line);
                if (backInval)
                    backInval(line);
            }
            st.invalsReceived += 1;
            sendAfter(cfg.fwdServiceNs, MsgType::InvalAck, m.requester,
                      line, m.requester);
            return;
        }
        // A data forward with a victim buffer entry alongside the
        // MAF targets our *old* ownership (we evicted and are
        // re-acquiring; our new request is queued behind this very
        // transaction at the home). It must be served from the
        // victim buffer now — deferring it behind the MAF would
        // deadlock the home against our queued request. Without a
        // VB entry the forward targets the fill still in flight to
        // us, so it waits for that fill.
        if (!vb.contains(line)) {
            it->second.deferredFwds.push_back(pkt);
            return;
        }
    }

    NodeId home = map.home(line).node;
    auto cacheState =
        cache ? cache->state(line) : mem::LineState::Invalid;

    switch (m.type) {
      case MsgType::Inval:
        st.invalsReceived += 1;
        if (cacheState == mem::LineState::Shared) {
            cache->invalidate(line);
            if (backInval)
                backInval(line);
        }
        // An Inval reaching a current owner is necessarily stale
        // (our ownership was granted after it was sent): ignore it.
        sendAfter(cfg.fwdServiceNs, MsgType::InvalAck, m.requester,
                  line, m.requester);
        break;

      case MsgType::FwdRd:
        st.forwardsServed += 1;
        if (cacheState == mem::LineState::Modified) {
            cache->setState(line, mem::LineState::Shared);
            sendAfter(cfg.fwdServiceNs, MsgType::BlkDirty, m.requester,
                      line, m.requester);
            sendAfter(cfg.fwdServiceNs, MsgType::WBShared, home, line,
                      m.requester, /*retains=*/1);
        } else if (cacheState == mem::LineState::Exclusive) {
            cache->setState(line, mem::LineState::Shared);
            sendAfter(cfg.fwdServiceNs, MsgType::BlkDirty, m.requester,
                      line, m.requester);
            sendAfter(cfg.fwdServiceNs, MsgType::FwdAckClean, home,
                      line, m.requester, /*retains=*/1);
        } else if (const VictimEntry *ve = vb.find(line)) {
            // Serve from the victim buffer; the entry stays until
            // VictimAck but we no longer cache the line.
            sendAfter(cfg.fwdServiceNs, MsgType::BlkDirty, m.requester,
                      line, m.requester);
            sendAfter(cfg.fwdServiceNs,
                      ve->dirty ? MsgType::WBShared
                                        : MsgType::FwdAckClean,
                      home, line, m.requester, /*retains=*/0);
        } else {
            gs_panic("FwdRd found no data at node ", self, " line ",
                     line);
        }
        break;

      case MsgType::FwdRdMod:
        st.forwardsServed += 1;
        if (cacheState == mem::LineState::Modified ||
            cacheState == mem::LineState::Exclusive) {
            cache->invalidate(line);
            if (backInval)
                backInval(line);
            sendAfter(cfg.fwdServiceNs, MsgType::BlkDirty, m.requester,
                      line, m.requester);
            sendAfter(cfg.fwdServiceNs, MsgType::FwdAckTransfer, home,
                      line, m.requester);
        } else if (vb.contains(line)) {
            sendAfter(cfg.fwdServiceNs, MsgType::BlkDirty, m.requester,
                      line, m.requester);
            sendAfter(cfg.fwdServiceNs, MsgType::FwdAckTransfer, home,
                      line, m.requester);
        } else {
            gs_panic("FwdRdMod found no data at node ", self, " line ",
                     line);
        }
        break;

      default:
        gs_panic("bad forward type");
    }
}

void
CoherentNode::handleVictimAck(const Msg &m)
{
    const bool held = vb.erase(m.line);
    gs_assert(held, "VictimAck without victim buffer");
}

void
CoherentNode::pumpPendingCore()
{
    while (!pendingCore.empty() &&
           static_cast<int>(maf.size()) < cfg.mafEntries) {
        auto [line, write, done] = std::move(pendingCore.front());
        pendingCore.pop_front();
        memAccess(line, write, std::move(done));
    }
}

// ---------------------------------------------------------------------
// Home side
// ---------------------------------------------------------------------

mem::Zbox &
CoherentNode::zboxFor(mem::Addr line)
{
    mem::MemTarget target = map.home(line);
    gs_assert(target.node == self, "wrong home: line ", line,
              " maps to ", target.node, ", processed at ", self);
    return *zboxes[static_cast<std::size_t>(target.mc) %
                   zboxes.size()];
}

void
CoherentNode::homeDispatch(const Msg &m)
{
    DirEntry &entry = dir[m.line];

    if (entry.state == DirState::Busy) {
        dirTxns[m.line].pending.push_back(m);
        return;
    }
    // An owner re-requesting its own line means its victim message
    // is still in flight; hold the request until the victim lands.
    if ((m.type == MsgType::RdReq || m.type == MsgType::RdModReq) &&
        entry.state == DirState::Exclusive &&
        entry.owner == m.requester) {
        dirTxns[m.line].pending.push_back(m);
        return;
    }
    homeProcess(m);
}

void
CoherentNode::homeProcess(const Msg &m)
{
    DirEntry &entry = dir[m.line];
    const mem::Addr line = m.line;
    const NodeId req = m.requester;

    switch (m.type) {
      case MsgType::RdReq:
      case MsgType::RdModReq:
        if (entry.state == DirState::Invalid ||
            entry.state == DirState::Shared) {
            const auto d =
                entry.state == DirState::Invalid
                    ? ckpt::makeDesc(ckpt::CohHomeReadExcl, self, req, 0,
                                     0, line)
                    : ckpt::makeDesc(ckpt::CohHomeReadShared, self, req,
                                     m.type == MsgType::RdModReq ? 1 : 0,
                                     0, line);
            setDirState(entry, DirState::Busy);
            zboxReadSpan(line, req, ckpt::Cont(d, [this, d] { fire(d); }));
        } else { // Exclusive at a third party: forward.
            gs_assert(entry.owner != req, "owner re-request reached "
                                          "homeProcess");
            DirTxn &txn = dirTxns[line];
            txn.requester = req;
            txn.type = m.type;
            NodeId owner = entry.owner;
            setDirState(entry, DirState::Busy);
            sendAfter(cfg.homeOverheadNs,
                      m.type == MsgType::RdReq ? MsgType::FwdRd
                                               : MsgType::FwdRdMod,
                      owner, line, req);
        }
        break;

      case MsgType::VictimWB:
      case MsgType::VictimClean:
        if (entry.state == DirState::Exclusive && entry.owner == req) {
            setDirState(entry, DirState::Busy);
            bool dirty = m.type == MsgType::VictimWB;
            if (dirty)
                zboxFor(line).write(line);
            post(cfg.homeOverheadNs,
                 ckpt::makeDesc(ckpt::CohHomeApplyVictim, self, req, 0, 0,
                                line));
        } else {
            // Stale victim: its line was already forwarded away from
            // the sender's victim buffer. Ack and drop the data.
            sendAfter(cfg.homeOverheadNs, MsgType::VictimAck, req,
                      line, req);
        }
        break;

      default:
        gs_panic("bad home request type");
    }
}

int
CoherentNode::sendInvals(std::uint64_t sharers, mem::Addr line,
                         NodeId req)
{
    int count = 0;
    if (cfg.sharerGroupSize == 1) {
        std::uint64_t others = sharers & ~sharerBit(req);
        for (NodeId n = 0; others; ++n, others >>= 1) {
            if (others & 1) {
                send(MsgType::Inval, n, line, req);
                count += 1;
            }
        }
        return count;
    }
    // Coarse mode: the requester's presence cannot be masked out of
    // its group bit, so it is skipped at emission instead. Spurious
    // Invals to group members that never held the line are safe —
    // every node acks an Inval — and the ack count handed to the
    // requester matches the sends exactly.
    const int group = cfg.sharerGroupSize;
    const int nodes = net_.topology().numNodes();
    for (int g = 0; sharers; ++g, sharers >>= 1) {
        if (!(sharers & 1))
            continue;
        const int hi = std::min((g + 1) * group, nodes);
        for (int n = g * group; n < hi; ++n) {
            if (n == req)
                continue;
            send(MsgType::Inval, static_cast<NodeId>(n), line, req);
            count += 1;
        }
    }
    return count;
}

void
CoherentNode::homeOwnerReply(const Msg &m, NodeId from)
{
    const DirEntry *e = dir.find(m.line);
    gs_assert(e && e->state == DirState::Busy,
              "owner reply without busy transaction");
    const DirTxn *txn = dirTxns.find(m.line);
    gs_assert(txn, "owner reply without transaction record");
    const mem::Addr line = m.line;
    const NodeId req = txn->requester;

    switch (m.type) {
      case MsgType::WBShared:
      case MsgType::FwdAckClean: {
        gs_assert(txn->type == MsgType::RdReq,
                  "downgrade reply for a non-read transaction");
        if (m.type == MsgType::WBShared)
            zboxFor(line).write(line);
        bool retains = m.aux != 0;
        std::uint64_t sharers = sharerBit(req);
        if (retains)
            sharers |= sharerBit(from);
        post(cfg.homeOverheadNs,
             ckpt::makeDesc(ckpt::CohHomeApplyDowngrade, self, 0, 0, 0,
                            line, sharers));
        break;
      }
      case MsgType::FwdAckTransfer:
        gs_assert(txn->type == MsgType::RdModReq,
                  "transfer reply for a non-write transaction");
        post(cfg.homeOverheadNs,
             ckpt::makeDesc(ckpt::CohHomeApplyTransfer, self, req, 0, 0,
                            line));
        break;
      default:
        gs_panic("bad owner reply type");
    }
}

void
CoherentNode::finishTxn(mem::Addr line)
{
    const DirEntry *e = dir.find(line);
    gs_assert(e && e->state != DirState::Busy,
              "finishTxn before the final state was applied");

    // Invalid entries leave the hot table entirely — the directory's
    // footprint tracks the lines a home *currently* tracks, not every
    // line it ever saw. Most transactions have no side-table record:
    // nothing queued, nothing more to do.
    DirTxn *txn = dirTxns.find(line);
    if (!txn) {
        if (e->state == DirState::Invalid)
            dir.erase(line);
        return;
    }

    // Re-dispatch each queued message at most once: a message may
    // defer itself again (owner re-request waiting for its victim),
    // in which case it lands back in the entry's pending queue and
    // must not spin here.
    std::deque<Msg> work = std::move(txn->pending);
    while (!work.empty()) {
        Msg m = work.front();
        work.pop_front();
        homeDispatch(m);
        if (dir.find(line)->state == DirState::Busy)
            break;
    }
    // Anything not processed keeps its order ahead of new deferrals.
    auto &pending = dirTxns[line].pending;
    pending.insert(pending.begin(), work.begin(), work.end());

    // Reclaim the side-table record once the line has no in-flight
    // transaction and nothing queued.
    const DirState state = dir.find(line)->state;
    if (pending.empty() && state != DirState::Busy) {
        dirTxns.erase(line);
        if (state == DirState::Invalid)
            dir.erase(line);
    }
}

// ---------------------------------------------------------------------
// Checkpoint/restore
// ---------------------------------------------------------------------

namespace
{

/** Deterministic iteration order over an unordered_map's keys. */
template <typename M>
std::vector<typename M::key_type>
sortedKeys(const M &m)
{
    std::vector<typename M::key_type> keys;
    keys.reserve(m.size());
    for (const auto &kv : m)
        keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());
    return keys;
}

/** Deterministic iteration order over a LineTable's lines. */
template <typename V>
std::vector<mem::Addr>
sortedKeys(const LineTable<V> &t)
{
    std::vector<mem::Addr> keys;
    keys.reserve(t.size());
    t.forEach([&](mem::Addr line, const V &) { keys.push_back(line); });
    std::sort(keys.begin(), keys.end());
    return keys;
}

void
saveMsg(ckpt::Serializer &s, const Msg &m)
{
    s.put8(static_cast<std::uint8_t>(m.type));
    s.put64(m.line);
    s.putI32(m.requester);
    s.put32(m.aux);
}

Msg
restoreMsg(ckpt::Deserializer &d)
{
    Msg m;
    m.type = static_cast<MsgType>(d.get8());
    m.line = d.get64();
    m.requester = d.getI32();
    m.aux = d.get32();
    return m;
}

} // namespace

void
CoherentNode::saveCkpt(ckpt::Serializer &s) const
{
    s.put64(st.accesses);
    s.put64(st.l2Hits);
    s.put64(st.misses);
    s.put64(st.mafMerges);
    s.put64(st.homeRequests);
    s.put64(st.forwardsServed);
    s.put64(st.invalsReceived);
    s.put64(st.victimsSent);
    s.put64(st.vbHighWater);
    st.missLatencyNs.saveCkpt(s);
    for (std::uint64_t n : st.msgSent)
        s.put64(n);
    for (std::uint64_t n : st.msgRecv)
        s.put64(n);

    s.putBool(cache != nullptr);
    if (cache)
        cache->saveCkpt(s);
    s.put32(static_cast<std::uint32_t>(zboxes.size()));
    for (const auto &z : zboxes)
        z->saveCkpt(s);

    s.put32(static_cast<std::uint32_t>(maf.size()));
    for (mem::Addr line : sortedKeys(maf)) {
        const MafEntry &e = maf.at(line);
        s.put64(line);
        s.putBool(e.write);
        s.putBool(e.dataArrived);
        s.putBool(e.invalWhilePending);
        s.put8(static_cast<std::uint8_t>(e.fillState));
        s.putI32(e.acksNeeded);
        s.putI32(e.acksGot);
        s.put64(e.issued);
        trace::saveSpan(s, e.span);
        s.put32(static_cast<std::uint32_t>(e.waiters.size()));
        for (const ckpt::Cont &w : e.waiters)
            ckpt::saveCont(s, w, "a MAF waiter");
        s.put32(static_cast<std::uint32_t>(e.deferredFwds.size()));
        for (const net::Packet &p : e.deferredFwds)
            net::savePacket(s, p);
        s.put32(static_cast<std::uint32_t>(e.retries.size()));
        for (const auto &[write, done] : e.retries) {
            s.putBool(write);
            ckpt::saveCont(s, done, "a MAF retry");
        }
    }

    s.put32(static_cast<std::uint32_t>(vb.size()));
    for (mem::Addr line : sortedKeys(vb)) {
        s.put64(line);
        s.putBool(vb.find(line)->dirty);
    }

    s.put32(static_cast<std::uint32_t>(dir.size()));
    for (mem::Addr line : sortedKeys(dir)) {
        const DirEntry &e = *dir.find(line);
        s.put64(line);
        s.put8(static_cast<std::uint8_t>(e.state));
        s.put64(e.sharers);
        s.putI32(e.owner);
        // Transaction bookkeeping lives in the side table; entries
        // without a record serialise the idle placeholder values.
        const DirTxn *txn = dirTxns.find(line);
        s.putI32(txn ? txn->requester : invalidNode);
        s.put8(static_cast<std::uint8_t>(txn ? txn->type
                                             : MsgType::RdReq));
        if (!txn) {
            s.put32(0);
        } else {
            s.put32(static_cast<std::uint32_t>(txn->pending.size()));
            for (const Msg &m : txn->pending)
                saveMsg(s, m);
        }
    }

    s.put32(static_cast<std::uint32_t>(pendingCore.size()));
    for (const auto &[line, write, done] : pendingCore) {
        s.put64(line);
        s.putBool(write);
        ckpt::saveCont(s, done, "a throttled core access");
    }

    s.put32(static_cast<std::uint32_t>(fillBatches.size()));
    for (const auto &[id, waiters] : fillBatches) {
        s.put64(id);
        s.put32(static_cast<std::uint32_t>(waiters.size()));
        for (const ckpt::Cont &w : waiters)
            ckpt::saveCont(s, w, "a fill-batch waiter");
    }
    s.put64(nextFillBatch);
    s.put64(ioReceived);

    s.put32(static_cast<std::uint32_t>(parked_.size()));
    for (const auto &[key, ss] : parked_) {
        s.put64(key.first);
        s.putI32(key.second);
        trace::saveSpan(s, ss);
    }
}

void
CoherentNode::restoreCkpt(ckpt::Deserializer &d,
                          const ckpt::RehydrateFn &rehydrate)
{
    st.accesses = d.get64();
    st.l2Hits = d.get64();
    st.misses = d.get64();
    st.mafMerges = d.get64();
    st.homeRequests = d.get64();
    st.forwardsServed = d.get64();
    st.invalsReceived = d.get64();
    st.victimsSent = d.get64();
    st.vbHighWater = d.get64();
    st.missLatencyNs.restoreCkpt(d);
    for (std::uint64_t &n : st.msgSent)
        n = d.get64();
    for (std::uint64_t &n : st.msgRecv)
        n = d.get64();

    if (d.getBool() != (cache != nullptr) && d.ok()) {
        d.fail("snapshot node " + std::to_string(self) +
               " cache presence differs from this machine");
        return;
    }
    if (cache)
        cache->restoreCkpt(d);
    if (d.get32() != zboxes.size() && d.ok()) {
        d.fail("snapshot node " + std::to_string(self) +
               " Zbox count differs from this machine");
        return;
    }
    for (auto &z : zboxes)
        z->restoreCkpt(d);

    maf.clear();
    std::uint32_t nMaf = d.get32();
    for (std::uint32_t i = 0; i < nMaf && d.ok(); ++i) {
        mem::Addr line = d.get64();
        MafEntry e;
        e.write = d.getBool();
        e.dataArrived = d.getBool();
        e.invalWhilePending = d.getBool();
        e.fillState = static_cast<mem::LineState>(d.get8());
        e.acksNeeded = d.getI32();
        e.acksGot = d.getI32();
        e.issued = d.get64();
        trace::restoreSpan(d, e.span);
        std::uint32_t nw = d.get32();
        for (std::uint32_t w = 0; w < nw && d.ok(); ++w)
            e.waiters.push_back(
                ckpt::restoreCont(d, rehydrate, "a MAF waiter"));
        std::uint32_t nf = d.get32();
        for (std::uint32_t f = 0; f < nf && d.ok(); ++f) {
            net::Packet p;
            net::restorePacket(d, p);
            e.deferredFwds.push_back(p);
        }
        std::uint32_t nr = d.get32();
        for (std::uint32_t r = 0; r < nr && d.ok(); ++r) {
            bool write = d.getBool();
            e.retries.emplace_back(
                write, ckpt::restoreCont(d, rehydrate, "a MAF retry"));
        }
        maf.emplace(line, std::move(e));
    }

    vb.clear();
    std::uint32_t nVb = d.get32();
    for (std::uint32_t i = 0; i < nVb && d.ok(); ++i) {
        mem::Addr line = d.get64();
        vb[line].dirty = d.getBool();
    }

    dir.clear();
    dirTxns.clear();
    busyLines = 0;
    std::uint32_t nDir = d.get32();
    for (std::uint32_t i = 0; i < nDir && d.ok(); ++i) {
        mem::Addr line = d.get64();
        const auto state = static_cast<DirState>(d.get8());
        const std::uint64_t sharers = d.get64();
        const NodeId owner = d.getI32();
        const NodeId txnReq = d.getI32();
        const auto txnType = static_cast<MsgType>(d.get8());
        std::uint32_t np = d.get32();
        if (txnReq != invalidNode || np > 0) {
            DirTxn &txn = dirTxns[line];
            txn.requester = txnReq;
            txn.type = txnType;
            for (std::uint32_t p = 0; p < np && d.ok(); ++p)
                txn.pending.push_back(restoreMsg(d));
        }
        DirEntry &e = dir[line];
        e.sharers = sharers;
        e.owner = owner;
        setDirState(e, state);
    }

    pendingCore.clear();
    std::uint32_t nPend = d.get32();
    for (std::uint32_t i = 0; i < nPend && d.ok(); ++i) {
        mem::Addr line = d.get64();
        bool write = d.getBool();
        pendingCore.emplace_back(
            line, write,
            ckpt::restoreCont(d, rehydrate, "a throttled core access"));
    }

    fillBatches.clear();
    std::uint32_t nBatch = d.get32();
    for (std::uint32_t i = 0; i < nBatch && d.ok(); ++i) {
        std::uint64_t id = d.get64();
        std::vector<ckpt::Cont> waiters;
        std::uint32_t nw = d.get32();
        for (std::uint32_t w = 0; w < nw && d.ok(); ++w)
            waiters.push_back(
                ckpt::restoreCont(d, rehydrate, "a fill-batch waiter"));
        fillBatches.emplace(id, std::move(waiters));
    }
    nextFillBatch = d.get64();
    ioReceived = d.get64();

    parked_.clear();
    std::uint32_t nParked = d.get32();
    for (std::uint32_t i = 0; i < nParked && d.ok(); ++i) {
        mem::Addr line = d.get64();
        NodeId req = d.getI32();
        trace::SpanState ss;
        trace::restoreSpan(d, ss);
        parked_.emplace(std::make_pair(line, req), ss);
    }
}

void
CoherentNode::fire(const ckpt::EventDesc &d)
{
    const mem::Addr line = d.u;
    const NodeId req = d.a;
    switch (d.kind) {
      case ckpt::CohSendMsg:
        send(static_cast<MsgType>(d.a), d.b, line, d.c,
             static_cast<std::uint32_t>(d.v));
        break;
      case ckpt::CohFillBatch: {
        auto it = fillBatches.find(d.u);
        gs_assert(it != fillBatches.end(), "fill batch ", d.u,
                  " vanished");
        std::vector<ckpt::Cont> waiters = std::move(it->second);
        fillBatches.erase(it);
        for (const auto &w : waiters)
            w();
        break;
      }
      case ckpt::CohHomeReadExcl:
        // Zbox read done; the directory update follows.
        spanDramDone(line, req);
        post(cfg.homeOverheadNs,
             ckpt::makeDesc(ckpt::CohHomeApplyExcl, self, req, 0, 0,
                            line));
        break;
      case ckpt::CohHomeApplyExcl: {
        DirEntry &e = dir[line];
        setDirState(e, DirState::Exclusive);
        e.owner = req;
        e.sharers = 0;
        send(MsgType::BlkExclusive, req, line, req, 0);
        finishTxn(line);
        break;
      }
      case ckpt::CohHomeReadShared:
        spanDramDone(line, req);
        post(cfg.homeOverheadNs,
             ckpt::makeDesc(ckpt::CohHomeApplyShared, self, req, d.b, 0,
                            line));
        break;
      case ckpt::CohHomeApplyShared: {
        DirEntry &e = dir[line];
        if (d.b == 0) {
            e.sharers |= sharerBit(req);
            setDirState(e, DirState::Shared);
            send(MsgType::BlkShared, req, line, req, 0);
        } else {
            int count = sendInvals(e.sharers, line, req);
            e.sharers = 0;
            e.owner = req;
            setDirState(e, DirState::Exclusive);
            send(MsgType::BlkExclusive, req, line, req,
                 static_cast<std::uint32_t>(count));
        }
        finishTxn(line);
        break;
      }
      case ckpt::CohHomeApplyVictim: {
        DirEntry &e = dir[line];
        setDirState(e, DirState::Invalid);
        e.owner = invalidNode;
        e.sharers = 0;
        send(MsgType::VictimAck, req, line, req);
        finishTxn(line);
        break;
      }
      case ckpt::CohHomeApplyDowngrade: {
        DirEntry &e = dir[line];
        setDirState(e, DirState::Shared);
        e.sharers = d.v;
        e.owner = invalidNode;
        finishTxn(line);
        break;
      }
      case ckpt::CohHomeApplyTransfer: {
        DirEntry &e = dir[line];
        setDirState(e, DirState::Exclusive);
        e.owner = req;
        e.sharers = 0;
        finishTxn(line);
        break;
      }
      default:
        gs_panic("node ", self, " fired a foreign event kind ", d.kind);
    }
}

} // namespace gs::coher
