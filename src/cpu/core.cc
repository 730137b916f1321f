#include "cpu/core.hh"

#include <bit>

#include "sim/logging.hh"

namespace gs::cpu
{

TimingCore::TimingCore(SimContext &context, coher::CoherentNode &n,
                       CoreParams params)
    : ctx(context), node(n), prm(params)
{
    if (prm.useL1) {
        l1 = std::make_unique<mem::Cache>(prm.l1);
        node.setBackInvalidate(
            [this](mem::Addr line) { l1->invalidate(line); });
    }
}

void
TimingCore::run(TrafficSource &source, std::function<void()> on_done)
{
    gs_assert(finished, "core is already running a stream");
    src = &source;
    onDone = std::move(on_done);
    staged.reset();
    thinking = false;
    blocked = false;
    exhausted = false;
    finished = false;
    inFlight = 0;
    st = CoreStats{};
    st.startTick = ctx.now();
    pump();
}

void
TimingCore::pump()
{
    if (finished)
        return;
    while (!thinking && !blocked && inFlight < prm.mlp) {
        if (!staged) {
            auto op = src->next();
            if (!op) {
                exhausted = true;
                maybeFinish();
                return;
            }
            staged = *op;
            if (staged->thinkNs > 0) {
                // Compute serializes in front of the issue stage.
                thinking = true;
                const auto d = opEvent(ckpt::CoreThink, *staged);
                ctx.queue().schedule(nsToTicks(staged->thinkNs), d,
                                     [this, d] { fire(d); });
                return;
            }
        }
        MemOp op = *staged;
        staged.reset();
        issue(op);
    }
}

void
TimingCore::issue(const MemOp &op)
{
    st.opsIssued += 1;
    inFlight += 1;
    if (op.dependent)
        blocked = true;

    // Read hits in the L1 complete without touching the L2. Writes
    // always visit the coherent L2 so upgrades are never skipped.
    if (l1 && !op.write && l1->lookup(op.addr, false).hit) {
        st.l1Hits += 1;
        const auto d = opEvent(ckpt::CoreL1Hit, op);
        ctx.queue().schedule(nsToTicks(prm.l1.loadToUseNs), d,
                             [this, d] { fire(d); });
        return;
    }

    const auto d = opEvent(ckpt::CoreMemDone, op);
    node.memAccess(op.addr, op.write,
                   ckpt::Cont(d, [this, d] { fire(d); }));
}

ckpt::EventDesc
TimingCore::opEvent(ckpt::EvKind kind, const MemOp &op) const
{
    return ckpt::makeDesc(kind, node.id(),
                          (op.write ? 1 : 0) | (op.dependent ? 2 : 0), 0,
                          0, op.addr,
                          std::bit_cast<std::uint64_t>(op.thinkNs));
}

void
TimingCore::complete(const MemOp &op)
{
    st.opsDone += 1;
    inFlight -= 1;
    if (op.dependent)
        blocked = false;
    maybeFinish();
    pump();
}

void
TimingCore::maybeFinish()
{
    if (finished || !exhausted || inFlight != 0 || staged || thinking)
        return;
    finished = true;
    st.endTick = ctx.now();
    if (onDone) {
        auto done = std::move(onDone);
        onDone = nullptr;
        done();
    }
}

void
TimingCore::resume(TrafficSource &source, std::function<void()> on_done)
{
    src = &source;
    onDone = finished ? nullptr : std::move(on_done);
}

void
TimingCore::saveCkpt(ckpt::Serializer &s) const
{
    s.put64(st.opsIssued);
    s.put64(st.opsDone);
    s.put64(st.l1Hits);
    s.put64(st.startTick);
    s.put64(st.endTick);
    s.putBool(staged.has_value());
    if (staged) {
        s.put64(staged->addr);
        s.putBool(staged->write);
        s.putF64(staged->thinkNs);
        s.putBool(staged->dependent);
    }
    s.putBool(thinking);
    s.putBool(blocked);
    s.putBool(exhausted);
    s.putBool(finished);
    s.putI32(inFlight);
    s.putBool(l1 != nullptr);
    if (l1)
        l1->saveCkpt(s);
}

void
TimingCore::restoreCkpt(ckpt::Deserializer &d)
{
    st.opsIssued = d.get64();
    st.opsDone = d.get64();
    st.l1Hits = d.get64();
    st.startTick = d.get64();
    st.endTick = d.get64();
    if (d.getBool()) {
        MemOp op;
        op.addr = d.get64();
        op.write = d.getBool();
        op.thinkNs = d.getF64();
        op.dependent = d.getBool();
        staged = op;
    } else {
        staged.reset();
    }
    thinking = d.getBool();
    blocked = d.getBool();
    exhausted = d.getBool();
    finished = d.getBool();
    inFlight = d.getI32();
    if (d.getBool() != (l1 != nullptr) && d.ok()) {
        d.fail("snapshot core L1 presence differs from this machine");
        return;
    }
    if (l1)
        l1->restoreCkpt(d);
}

void
TimingCore::fire(const ckpt::EventDesc &d)
{
    MemOp op;
    op.addr = d.u;
    op.write = (d.a & 1) != 0;
    op.dependent = (d.a & 2) != 0;
    op.thinkNs = std::bit_cast<double>(d.v);
    switch (d.kind) {
      case ckpt::CoreThink: {
        // The think time elapsed: issue the staged op.
        thinking = false;
        const MemOp next = *staged;
        staged.reset();
        issue(next);
        pump();
        break;
      }
      case ckpt::CoreL1Hit:
        complete(op);
        break;
      case ckpt::CoreMemDone:
        if (l1 && !l1->contains(op.addr)) {
            mem::Victim victim =
                l1->fill(op.addr, mem::LineState::Shared);
            (void)victim; // L1 is write-through here; drop silently
        }
        complete(op);
        break;
      default:
        gs_panic("cpu ", node.id(), " fired a foreign event kind ",
                 d.kind);
    }
}

} // namespace gs::cpu
