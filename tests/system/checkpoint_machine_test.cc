/**
 * @file
 * Machine-level checkpoint/restore: the A/B determinism contract
 * (run N ticks, save, run M more == save + restore + run M, for the
 * serial and parallel engines alike, snapshots cut with packets in
 * router VCs or with every event kind pending), rejection of corrupt
 * or mismatched snapshots with actionable errors, one restore owner
 * per event kind, and watchdog-driven crash recovery (rollback to a
 * snapshot, heal, complete; or exhaust the retry budget and die
 * loudly).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fault/injector.hh"
#include "net/packet_pool.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/telemetry.hh"
#include "system/machine.hh"
#include "workload/load_test.hh"
#include "workload/pointer_chase.hh"

namespace
{

using namespace gs;

std::string
tmpPrefix(const std::string &name)
{
    return testing::TempDir() + name;
}

/** A machine plus identically-rebuildable workload. */
struct Rig
{
    std::unique_ptr<sys::Machine> m;
    std::vector<std::unique_ptr<wl::RandomRemoteReads>> gens;
    std::vector<cpu::TrafficSource *> sources;
    std::unique_ptr<telem::Sampler> sampler; ///< set by addMonitors
};

Rig
makeRig(int cpus, int threads, std::uint64_t seed, std::uint64_t reads,
        TileShape tiles = {0, 0})
{
    Rig r;
    sys::Gs1280Options opt;
    opt.seed = seed;
    opt.threads = threads;
    opt.tileRows = tiles.rows;
    opt.tileCols = tiles.cols;
    r.m = sys::Machine::buildGS1280(cpus, opt);
    for (int c = 0; c < cpus; ++c) {
        r.gens.push_back(std::make_unique<wl::RandomRemoteReads>(
            static_cast<NodeId>(c), cpus, 8ULL << 20, reads,
            Rng::deriveSeed(seed, static_cast<std::uint64_t>(c))));
        r.sources.push_back(r.gens.back().get());
    }
    return r;
}

/** Flits held in router input VCs across the whole fabric. */
int
bufferedFlits(sys::Machine &m)
{
    net::Network &net = m.network();
    const topo::Topology &topo = net.topology();
    int flits = 0;
    for (NodeId node = 0; node < topo.numNodes(); ++node)
        for (int p = 0; p < topo.numPorts(node); ++p)
            for (int vc = 0; vc < net::numVcs; ++vc)
                flits += net.router(node).vcOccupancy(p, vc);
    return flits;
}

/**
 * Give @p r the event owners a plain workload run never schedules
 * for: an armed watchdog (WatchdogPoll), a registered, started
 * Sampler (ClientEvent) and a fault due at @p faultAt (FaultApply).
 */
void
addMonitors(Rig &r, Tick faultAt)
{
    fault::WatchdogConfig cfg;
    cfg.checkCycles = 200;
    r.m->armWatchdog(cfg);
    r.sampler = std::make_unique<telem::Sampler>(
        r.m->ctx(), r.m->telemetry(), nsToTicks(200.0));
    r.sampler->watch("net.delivered_packets");
    r.sampler->watchRate("net.delivered_flits", 1.0);
    r.m->registerCkptClient(*r.sampler);
    r.sampler->start();
    fault::FaultPlan plan;
    plan.linkDown(faultAt, 0, 0);
    r.m->faults().schedule(plan);
}

/** Pending events on the serial queue whose kind is @p kind. */
int
pendingOfKind(sys::Machine &m, ckpt::EvKind kind)
{
    int n = 0;
    m.ctx().queue().visitPending(
        [&n, kind](Tick, std::uint64_t, const ckpt::EventDesc &d) {
            n += d.kind == kind ? 1 : 0;
        });
    return n;
}

std::string
exportOf(sys::Machine &m, const telem::Sampler *sampler = nullptr)
{
    std::ostringstream os;
    telem::exportJson(os, m.telemetry(), sampler, m.ctx().now());
    return os.str();
}

/**
 * A snapshot file as bytes, for tests that corrupt one field and
 * reseal its section (recompute the CRC), so that only the restore
 * code's own checks can catch the damage.
 */
struct SnapshotBytes
{
    std::vector<std::uint8_t> bytes;

    explicit SnapshotBytes(const std::string &path)
    {
        std::ifstream f(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
    }

    void
    write(const std::string &path) const
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f.write(reinterpret_cast<const char *>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }

    std::uint64_t
    le(std::size_t at, int len) const
    {
        std::uint64_t v = 0;
        for (int i = len - 1; i >= 0; --i)
            v = (v << 8) | bytes[at + std::size_t(i)];
        return v;
    }

    void
    put(std::size_t at, std::uint64_t v, int len)
    {
        for (int i = 0; i < len; ++i)
            bytes[at + std::size_t(i)] =
                static_cast<std::uint8_t>(v >> (8 * i));
    }

    /** Offset of section @p tag's frame (tag, CRC, length). */
    std::size_t
    frame(std::uint32_t tag) const
    {
        std::size_t at = 16; // magic + version + reserved
        while (le(at, 4) != tag)
            at += 16 + static_cast<std::size_t>(le(at + 8, 8));
        return at;
    }

    /** A reader positioned at the start of section @p tag. */
    ckpt::Deserializer
    open(std::uint32_t tag) const
    {
        const std::size_t f = frame(tag);
        ckpt::Deserializer d(bytes.data() + f, bytes.size() - f);
        d.enterSection(tag, "section");
        return d;
    }

    /** File offset of @p d's next read (@p d from open(@p tag)). */
    std::size_t
    at(std::uint32_t tag, const ckpt::Deserializer &d) const
    {
        const std::size_t f = frame(tag);
        return f + 16 + static_cast<std::size_t>(le(f + 8, 8)) -
               d.sectionRemaining();
    }

    /** Recompute section @p tag's CRC after a patch. */
    void
    reseal(std::uint32_t tag)
    {
        const std::size_t f = frame(tag);
        const auto len = static_cast<std::size_t>(le(f + 8, 8));
        put(f + 4, ckpt::crc32(bytes.data() + f + 16, len), 4);
    }
};

/** Skip one NETW shard, returning its pool's slot count and its
 *  freelist's file offsets. */
std::uint32_t
skipShard(const SnapshotBytes &snap, ckpt::Deserializer &d,
          std::vector<std::size_t> *freeAt = nullptr)
{
    const std::uint32_t slots = d.get32();
    for (std::uint32_t i = 0; i < slots && d.ok(); ++i) {
        net::Packet pkt;
        net::restorePacket(d, pkt);
    }
    const std::uint32_t nFree = d.get32();
    for (std::uint32_t i = 0; i < nFree && d.ok(); ++i) {
        if (freeAt)
            freeAt->push_back(snap.at(ckpt::secNet, d));
        d.get32();
    }
    for (std::uint32_t i = 0; i < slots && d.ok(); ++i)
        d.get8();
    for (int i = 0; i < 4 + 5; ++i) // pool counters, traffic counters
        d.get64();
    stats::Average avg;
    avg.restoreCkpt(d);
    avg.restoreCkpt(d);
    d.getI32();
    d.getBool();
    for (int i = 0; i < 4; ++i)
        d.get64();
    return slots;
}

/** Skip one router's NETW record, noting where its queued handles
 *  (VC and injection queues) sit in the file. */
void
skipRouter(const SnapshotBytes &snap, ckpt::Deserializer &d,
           std::vector<std::size_t> &queuedAt)
{
    auto skipQueue = [&] {
        const std::uint32_t n = d.get32();
        for (std::uint32_t i = 0; i < n && d.ok(); ++i) {
            queuedAt.push_back(snap.at(ckpt::secNet, d));
            d.get32();
        }
    };
    const std::uint32_t queues = d.get32();
    for (std::uint32_t q = 0; q < queues && d.ok(); ++q)
        skipQueue();
    for (std::uint32_t q = 0; q < queues && d.ok(); ++q) { // VC state
        d.getI32();
        d.get64();
        d.get64();
    }
    const std::uint32_t ports = d.get32();
    for (std::uint32_t p = 0; p < ports && d.ok(); ++p)
        d.getI32(); // rrVc
    d.get32();
    for (std::uint32_t p = 0; p < ports && d.ok(); ++p) {
        d.getBool();
        for (int vc = 0; vc < net::numVcs; ++vc)
            d.getI32();
        d.get64();
        d.getI32();
        d.getI32();
        d.get64();
        d.get64();
    }
    for (int c = 0; c < net::numClasses; ++c)
        skipQueue();
    for (int c = 0; c < net::numClasses; ++c)
        d.get64();
    d.getI32();
    d.get64();
    d.getI32();
    d.getI32();
    for (int i = 0; i < 3; ++i)
        d.get64();
    const std::uint32_t side = d.get32();
    for (std::uint32_t i = 0; i < side && d.ok(); ++i)
        d.get32();
}

/** Knobs of checkContract beyond the engine configuration. */
struct ContractOpts
{
    TileShape tiles{0, 0};
    /** Every mid-run snapshot must hold packets in router VCs, so
     *  the restore exercises the rebuilt VC occupancy state. (The
     *  last one lands at the end of the run, when the fabric has
     *  drained.) */
    bool requireBuffered = false;
    /** Serial only: addMonitors, so every snapshot also holds a
     *  WatchdogPoll, a ClientEvent and a FaultApply. */
    bool monitors = false;
};

/**
 * The contract, one engine configuration at a time: a run that
 * checkpoints periodically must be continuable from EVERY snapshot
 * it wrote, with final exports byte-identical to its own.
 */
void
checkContract(int cpus, int saveThreads, int restoreThreads,
              std::uint64_t seed, std::uint64_t reads,
              const std::string &tag, ContractOpts o = {})
{
    // Probe run: learn the workload's natural length.
    Rig probe = makeRig(cpus, saveThreads, seed, reads, o.tiles);
    ASSERT_TRUE(probe.m->run(probe.sources));
    const Tick endTick = probe.m->ctx().now();
    ASSERT_GT(endTick, 0u);
    const Tick every = endTick / 3;

    // Reference: uninterrupted, but checkpointing as it goes (the
    // ckpt.* counters are part of the export, so the continued run
    // must checkpoint on the same schedule to converge).
    const std::string prefixA = tmpPrefix("ckpt_ab_a_" + tag);
    Rig a = makeRig(cpus, saveThreads, seed, reads, o.tiles);
    if (o.monitors)
        addMonitors(a, 3 * endTick);
    a.m->setCheckpointPolicy(every, prefixA);
    ASSERT_TRUE(a.m->run(a.sources));
    const std::string wantExport = exportOf(*a.m, a.sampler.get());
    const std::uint64_t snaps = a.m->checkpointSaves();
    ASSERT_GE(snaps, 2u) << "expected multiple periodic snapshots";

    for (std::uint64_t k = 1; k <= snaps; ++k) {
        SCOPED_TRACE(tag + " snapshot " + std::to_string(k));
        const std::string snap =
            prefixA + "." + std::to_string(k) + ".gsckpt";
        const std::string prefixB =
            tmpPrefix("ckpt_ab_b_" + tag + "_" + std::to_string(k));
        Rig b = makeRig(cpus, restoreThreads, seed, reads, o.tiles);
        if (o.monitors)
            addMonitors(b, 3 * endTick);
        b.m->setCheckpointPolicy(every, prefixB);
        std::string err;
        ASSERT_TRUE(b.m->restore(snap, b.sources, &err)) << err;
        if (o.requireBuffered && k < snaps) {
            EXPECT_GT(bufferedFlits(*b.m), 0)
                << "snapshot caught no packet in a router VC";
        }
        if (o.monitors) {
            // addMonitors scheduled its own events on b before the
            // restore replaced the queue; these are the snapshot's.
            EXPECT_TRUE(b.m->watchdog()->armed());
            for (ckpt::EvKind kind :
                 {ckpt::WatchdogPoll, ckpt::ClientEvent,
                  ckpt::FaultApply}) {
                EXPECT_EQ(pendingOfKind(*b.m, kind), 1)
                    << "snapshot lacks pending event kind " << kind;
            }
        }
        // Bounded: a continuation that strands packets must fail
        // here, not spin to the default limit writing a snapshot
        // every `every` ticks.
        ASSERT_TRUE(b.m->run(b.sources, 2 * endTick))
            << "restored run did not finish";
        EXPECT_EQ(exportOf(*b.m, b.sampler.get()), wantExport)
            << "restored run diverged from the uninterrupted one";
        EXPECT_EQ(b.m->checkpointRestores(), 1u);
        for (std::uint64_t n = 1; n <= b.m->checkpointSaves(); ++n)
            std::remove((prefixB + "." + std::to_string(n) + ".gsckpt")
                            .c_str());
    }
    for (std::uint64_t n = 1; n <= snaps; ++n)
        std::remove(
            (prefixA + "." + std::to_string(n) + ".gsckpt").c_str());
}

TEST(CheckpointMachine, ContractSerialAcrossSeeds)
{
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        checkContract(8, 1, 1, seed, 80,
                      "serial_s" + std::to_string(seed),
                      {.requireBuffered = true});
    }
    checkContract(8, 1, 1, 4, 80, "serial_monitors",
                  {.requireBuffered = true, .monitors = true});
}

TEST(CheckpointMachine, ContractParallelAcrossSeeds)
{
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        checkContract(16, 4, 4, seed, 60,
                      "par_s" + std::to_string(seed));
    }
}

TEST(CheckpointMachine, ParallelSnapshotRestoresAtAnyThreadCount)
{
    // Domains are fixed by the tile shape, not the worker count: a
    // snapshot saved at --threads 2 continues at --threads 8 when
    // both runs pin the same decomposition (the auto shape tracks
    // --threads, so cross-thread-count restores must pin one).
    checkContract(16, 2, 8, 5, 60, "par_threads", {.tiles = {2, 2}});
}

TEST(CheckpointMachine, TileShapeSnapshotContractAtEightThreads)
{
    // The tile engine at full thread count with a non-default shape
    // (auto would pick 2x4 for 8 threads on the 4x4 torus): every
    // mid-run snapshot must continue byte-identically, adaptive
    // lookahead state and all.
    checkContract(16, 8, 8, 11, 60, "tile_4x2", {.tiles = {4, 2}});
}

TEST(CheckpointMachine, RestoreRejectsTileShapeMismatch)
{
    // Same domain COUNT on both sides (so the layout check passes)
    // but a transposed decomposition: the tile-shape fields must
    // reject it — a 2x2-tiled event stream replayed onto 4x1 tiles
    // would be silently wrong.
    Rig a = makeRig(16, 4, 3, 40, {2, 2});
    ASSERT_TRUE(a.m->run(a.sources));
    const std::string snap = tmpPrefix("ckpt_tileshape.gsckpt");
    std::string err;
    ASSERT_TRUE(a.m->save(snap, &err)) << err;

    Rig b = makeRig(16, 4, 3, 40, {4, 1});
    EXPECT_FALSE(b.m->restore(snap, b.sources, &err));
    EXPECT_NE(err.find("tile"), std::string::npos) << err;
    std::remove(snap.c_str());
}

TEST(CheckpointMachine, SaveWritesRestorableFileOutsideRun)
{
    // Manual save/restore (no periodic policy): save mid-run is the
    // normal path, but a quiesced machine saves too.
    Rig a = makeRig(4, 1, 9, 40);
    ASSERT_TRUE(a.m->run(a.sources));
    const std::string snap = tmpPrefix("ckpt_manual.gsckpt");
    std::string err;
    ASSERT_TRUE(a.m->save(snap, &err)) << err;

    Rig b = makeRig(4, 1, 9, 40);
    ASSERT_TRUE(b.m->restore(snap, b.sources, &err)) << err;
    // Everything already finished; the continued run is a no-op and
    // the exports match.
    ASSERT_TRUE(b.m->run(b.sources));
    // ckpt.saves differs (a saved once, b did not), so compare a
    // representative set of simulation counters instead.
    for (const char *path :
         {"net.injected_packets", "net.delivered_packets", "eq.fired",
          "net.latency_ns"}) {
        SCOPED_TRACE(path);
        EXPECT_EQ(b.m->telemetry().value(path),
                  a.m->telemetry().value(path));
    }
    std::remove(snap.c_str());
}

TEST(CheckpointMachine, RestoreRejectsBitFlippedSnapshot)
{
    Rig a = makeRig(4, 1, 2, 40);
    ASSERT_TRUE(a.m->run(a.sources));
    const std::string snap = tmpPrefix("ckpt_flip.gsckpt");
    std::string err;
    ASSERT_TRUE(a.m->save(snap, &err)) << err;

    {
        std::fstream f(snap,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekg(0, std::ios::end);
        // Mid-file: deep inside some section, wherever the layout
        // puts it — a tag byte and a payload byte must both reject.
        const std::streamoff at =
            static_cast<std::streamoff>(f.tellg()) / 2;
        f.seekg(at);
        char b = 0;
        f.read(&b, 1);
        b = static_cast<char>(b ^ 0x40);
        f.seekp(at);
        f.write(&b, 1);
    }

    Rig b = makeRig(4, 1, 2, 40);
    EXPECT_FALSE(b.m->restore(snap, b.sources, &err));
    // A payload flip fails the section CRC; a flip that happens to
    // land on a section tag fails the layout walk. Either way the
    // snapshot must be rejected with a diagnosis, never half-loaded.
    EXPECT_TRUE(err.find("CRC mismatch") != std::string::npos ||
                err.find("layout error") != std::string::npos)
        << err;
    std::remove(snap.c_str());
}

TEST(CheckpointMachine, RestoreRejectsTruncatedSnapshot)
{
    Rig a = makeRig(4, 1, 2, 40);
    ASSERT_TRUE(a.m->run(a.sources));
    const std::string snap = tmpPrefix("ckpt_trunc.gsckpt");
    std::string err;
    ASSERT_TRUE(a.m->save(snap, &err)) << err;
    {
        std::vector<char> bytes;
        {
            std::ifstream f(snap, std::ios::binary);
            bytes.assign(std::istreambuf_iterator<char>(f),
                         std::istreambuf_iterator<char>());
        }
        std::ofstream f(snap, std::ios::binary | std::ios::trunc);
        f.write(bytes.data(),
                static_cast<std::streamsize>(bytes.size() / 2));
    }

    Rig b = makeRig(4, 1, 2, 40);
    EXPECT_FALSE(b.m->restore(snap, b.sources, &err));
    EXPECT_NE(err.find("truncated"), std::string::npos) << err;
    std::remove(snap.c_str());
}

TEST(CheckpointMachine, RestoreRejectsMismatchedBuild)
{
    Rig a = makeRig(4, 1, 2, 40);
    ASSERT_TRUE(a.m->run(a.sources));
    const std::string snap = tmpPrefix("ckpt_mismatch.gsckpt");
    std::string err;
    ASSERT_TRUE(a.m->save(snap, &err)) << err;

    {
        // Different seed.
        Rig b = makeRig(4, 1, 3, 40);
        EXPECT_FALSE(b.m->restore(snap, b.sources, &err));
        EXPECT_NE(err.find("seed"), std::string::npos) << err;
    }
    {
        // Different CPU count.
        Rig b = makeRig(8, 1, 2, 40);
        EXPECT_FALSE(b.m->restore(snap, b.sources, &err));
        EXPECT_NE(err.find("mismatch"), std::string::npos) << err;
    }
    {
        // Serial snapshot into a parallel machine.
        Rig b = makeRig(4, 2, 2, 40);
        if (b.m->isParallel()) {
            EXPECT_FALSE(b.m->restore(snap, b.sources, &err));
            EXPECT_NE(err.find("domain"), std::string::npos) << err;
        }
    }
    {
        // Wrong workload set.
        Rig b = makeRig(4, 1, 2, 40);
        std::vector<cpu::TrafficSource *> tooFew(
            b.sources.begin(), b.sources.begin() + 2);
        EXPECT_FALSE(b.m->restore(snap, tooFew, &err));
        EXPECT_NE(err.find("traffic sources"), std::string::npos)
            << err;
    }
    std::remove(snap.c_str());
}

TEST(CheckpointMachine, RestoreRejectsOutOfRangeEventOwner)
{
    // A descriptor is all restore knows of an event. One that names
    // a node, port, VC, domain or client this machine lacks would
    // index past its owner's tables when it fires, so the dispatcher
    // must refuse it before anything runs.
    Rig r = makeRig(4, 1, 2, 40);
    sys::Machine &m = *r.m;
    const int nodes = m.network().topology().numNodes();
    const int ports = m.network().topology().numPorts(0);
    auto bound = [&m](ckpt::EvKind kind, int owner, int a = 0,
                      int b = 0) {
        return static_cast<bool>(
            m.rehydrate(ckpt::makeDesc(kind, owner, a, b)));
    };

    for (ckpt::EvKind kind : {ckpt::NetInjStart, ckpt::NetDeliverLocal,
                              ckpt::NetReceive, ckpt::NetCredit}) {
        SCOPED_TRACE("kind " + std::to_string(kind));
        EXPECT_TRUE(bound(kind, nodes - 1));
        EXPECT_FALSE(bound(kind, nodes));
        EXPECT_FALSE(bound(kind, 0xffff));
    }
    for (ckpt::EvKind kind : {ckpt::NetReceive, ckpt::NetCredit}) {
        SCOPED_TRACE("kind " + std::to_string(kind));
        EXPECT_TRUE(bound(kind, 0, ports - 1, net::numVcs - 1));
        EXPECT_FALSE(bound(kind, 0, ports, 0));
        EXPECT_FALSE(bound(kind, 0, -1, 0));
        EXPECT_FALSE(bound(kind, 0, 0, net::numVcs));
        EXPECT_FALSE(bound(kind, 0, 0, -1));
    }
    EXPECT_TRUE(bound(ckpt::NetTick, m.network().domains() - 1));
    EXPECT_FALSE(bound(ckpt::NetTick, m.network().domains()));
    EXPECT_FALSE(bound(ckpt::CohSendMsg, nodes));
    EXPECT_FALSE(bound(ckpt::CoreMemDone, 4));
    EXPECT_FALSE(bound(ckpt::WatchdogPoll, 0)) << "no watchdog armed";
    EXPECT_FALSE(bound(ckpt::ClientEvent, 0)) << "no client registered";
}

TEST(CheckpointMachine, RestoreRejectsBadMailboxEntry)
{
    // A parallel snapshot holds the cross-domain effects posted in
    // the last epoch. mergeFor schedules them without passing the
    // restore dispatcher, so restore must check each entry itself.
    Rig probe = makeRig(16, 4, 7, 60);
    ASSERT_TRUE(probe.m->isParallel());
    ASSERT_TRUE(probe.m->run(probe.sources));
    const Tick endTick = probe.m->ctx().now();

    Rig a = makeRig(16, 4, 7, 60);
    ASSERT_FALSE(a.m->run(a.sources, endTick / 2)) << "not mid-run";
    const std::string snap = tmpPrefix("ckpt_bad_mailbox.gsckpt");
    std::string err;
    ASSERT_TRUE(a.m->save(snap, &err)) << err;
    const SnapshotBytes good(snap);

    // Walk NETW to the first mailbox entry.
    const net::Network &net = a.m->network();
    ckpt::Deserializer d = good.open(ckpt::secNet);
    const int domains = d.getI32();
    d.get32(); // routers
    for (int dom = 0; dom < domains; ++dom)
        skipShard(good, d);
    std::size_t entryAt = 0;
    for (int mb = 0; mb < 2 * domains * domains && entryAt == 0; ++mb) {
        const std::uint32_t n = d.get32();
        if (n > 0)
            entryAt = good.at(ckpt::secNet, d);
        for (std::uint32_t i = 0; i < n && d.ok(); ++i) {
            d.get64();
            for (int f = 0; f < 5; ++f)
                d.getI32();
            net::Packet pkt;
            net::restorePacket(d, pkt);
        }
        d.get64(); // minDue
    }
    ASSERT_TRUE(d.ok()) << d.error();
    ASSERT_NE(entryAt, 0u) << "snapshot holds no mailbox entry";

    // Entry layout: due (8), node, port, vc, flits, credit (4 each).
    const std::size_t nodeAt = entryAt + 8, portAt = nodeAt + 4,
                      vcAt = portAt + 4, flitsAt = vcAt + 4,
                      creditAt = flitsAt + 4;
    const auto node = static_cast<NodeId>(good.le(nodeAt, 4));
    NodeId foreign = 0;
    while (net.domainOf(foreign) == net.domainOf(node))
        ++foreign;

    struct Patch
    {
        const char *what;
        std::vector<std::pair<std::size_t, std::uint32_t>> fields;
    };
    const std::vector<Patch> patches = {
        {"node out of range",
         {{nodeAt, std::uint32_t(net.topology().numNodes())}}},
        {"negative node", {{nodeAt, 0xffffffffu}}},
        {"node outside the destination domain",
         {{nodeAt, std::uint32_t(foreign)}}},
        {"port out of range",
         {{portAt, std::uint32_t(net.topology().numPorts(node))}}},
        {"vc out of range", {{vcAt, std::uint32_t(net::numVcs)}}},
        {"credit flag not 0 or 1", {{creditAt, 2u}}},
        {"empty credit", {{creditAt, 1u}, {flitsAt, 0u}}},
    };

    {
        // Resealed but unpatched: the walk above found a real entry.
        SnapshotBytes same = good;
        same.reseal(ckpt::secNet);
        same.write(snap);
        Rig b = makeRig(16, 4, 7, 60);
        ASSERT_TRUE(b.m->restore(snap, b.sources, &err)) << err;
    }
    for (const Patch &p : patches) {
        SCOPED_TRACE(p.what);
        SnapshotBytes bad = good;
        for (const auto &[at, v] : p.fields)
            bad.put(at, v, 4);
        bad.reseal(ckpt::secNet);
        bad.write(snap);
        Rig b = makeRig(16, 4, 7, 60);
        EXPECT_FALSE(b.m->restore(snap, b.sources, &err));
        EXPECT_NE(err.find("mailbox entry"), std::string::npos) << err;
    }
    std::remove(snap.c_str());
}

TEST(CheckpointMachine, RestoreRejectsDanglingPacketHandle)
{
    // Pending fabric events, router queues and the pool's freelist
    // all name packets by pool handle. A handle past the pool, or
    // one naming a free slot, must fail the restore instead of
    // indexing the pool when it is next used.
    Rig probe = makeRig(8, 1, 3, 80);
    ASSERT_TRUE(probe.m->run(probe.sources));
    const Tick endTick = probe.m->ctx().now();

    Rig a = makeRig(8, 1, 3, 80);
    ASSERT_FALSE(a.m->run(a.sources, endTick / 2)) << "not mid-run";
    const std::string snap = tmpPrefix("ckpt_bad_handle.gsckpt");
    std::string err;
    ASSERT_TRUE(a.m->save(snap, &err)) << err;
    const SnapshotBytes good(snap);

    // EVTQ: the handle (u) of the first pending packet event.
    std::size_t eventU = 0;
    {
        ckpt::Deserializer d = good.open(ckpt::secEvtq);
        ASSERT_EQ(d.getI32(), 1);
        for (int i = 0; i < 7; ++i)
            d.get64();
        const std::uint32_t n = d.get32();
        for (std::uint32_t i = 0; i < n && eventU == 0 && d.ok(); ++i) {
            d.get64(); // when
            d.get64(); // seq
            const std::size_t descAt = good.at(ckpt::secEvtq, d);
            const ckpt::EventDesc e = d.getDesc();
            if (e.kind == ckpt::NetInjStart ||
                e.kind == ckpt::NetDeliverLocal ||
                e.kind == ckpt::NetReceive)
                eventU = descAt + 16; // kind, owner, a, b, c
        }
        ASSERT_TRUE(d.ok()) << d.error();
    }
    ASSERT_NE(eventU, 0u) << "no pending packet event";
    const auto liveHandle =
        static_cast<std::uint32_t>(good.le(eventU, 4));

    // NETW: the pool's size and freelist, and every router's
    // queued handles.
    std::vector<std::size_t> freeAt, queuedAt;
    std::uint32_t slots = 0;
    {
        ckpt::Deserializer d = good.open(ckpt::secNet);
        ASSERT_EQ(d.getI32(), 1);
        const std::uint32_t routers = d.get32();
        slots = skipShard(good, d, &freeAt);
        d.getBool(); // degraded
        for (std::uint32_t r = 0; r < routers; ++r)
            d.get8(); // dead flags
        for (std::uint32_t r = 0; r < routers && d.ok(); ++r)
            skipRouter(good, d, queuedAt);
        d.getI32(); // adaptive-lookahead factor
        d.get64();
        ASSERT_TRUE(d.ok()) << d.error();
        EXPECT_EQ(d.sectionRemaining(), 0u) << "NETW walk misparsed";
    }
    ASSERT_FALSE(freeAt.empty()) << "pool has no free slot";
    const auto freeHandle =
        static_cast<std::uint32_t>(good.le(freeAt[0], 4));

    struct Patch
    {
        const char *what;
        std::uint32_t tag;
        std::size_t at;
        std::uint64_t value;
        int len;
    };
    std::vector<Patch> patches = {
        {"event handle past the pool", ckpt::secEvtq, eventU, slots, 8},
        {"event handle above 32 bits", ckpt::secEvtq, eventU,
         (std::uint64_t{1} << 32) | liveHandle, 8},
        {"event handle naming a free slot", ckpt::secEvtq, eventU,
         freeHandle, 8},
        {"freelist handle past the pool", ckpt::secNet, freeAt[0], slots,
         4},
        {"freelist handle naming a live slot", ckpt::secNet, freeAt[0],
         liveHandle, 4},
    };
    ASSERT_FALSE(queuedAt.empty()) << "no router holds a packet";
    patches.push_back({"queued handle past the pool", ckpt::secNet,
                       queuedAt[0], slots, 4});
    patches.push_back({"queued handle naming a free slot", ckpt::secNet,
                       queuedAt[0], freeHandle, 4});

    {
        SnapshotBytes same = good;
        same.reseal(ckpt::secEvtq);
        same.reseal(ckpt::secNet);
        same.write(snap);
        Rig b = makeRig(8, 1, 3, 80);
        ASSERT_TRUE(b.m->restore(snap, b.sources, &err)) << err;
    }
    for (const Patch &p : patches) {
        SCOPED_TRACE(p.what);
        SnapshotBytes bad = good;
        bad.put(p.at, p.value, p.len);
        bad.reseal(p.tag);
        bad.write(snap);
        Rig b = makeRig(8, 1, 3, 80);
        EXPECT_FALSE(b.m->restore(snap, b.sources, &err));
        EXPECT_NE(err.find("handle"), std::string::npos) << err;
    }
    std::remove(snap.c_str());
}

TEST(CheckpointMachine, EveryEventKindHasOneRestoreOwner)
{
    // Restore reaches an event's action only through the dispatcher,
    // so a kind it cannot route would first fail in some snapshot
    // that happens to hold one. Walk every kind instead, on a
    // machine that owns them all. (ClientEvent is the last kind.)
    Rig r = makeRig(4, 1, 2, 40);
    r.m->armWatchdog();
    telem::Sampler sampler(r.m->ctx(), r.m->telemetry(), tickUs);
    r.m->registerCkptClient(sampler);

    for (int kind = 1; kind <= ckpt::ClientEvent; ++kind) {
        SCOPED_TRACE("kind " + std::to_string(kind));
        EXPECT_TRUE(r.m->rehydrate(ckpt::makeDesc(
            static_cast<std::uint16_t>(kind), 0)));
    }
    EXPECT_FALSE(r.m->rehydrate(ckpt::makeDesc(ckpt::Opaque, 0)));
    EXPECT_FALSE(r.m->rehydrate(ckpt::makeDesc(
        static_cast<std::uint16_t>(ckpt::ClientEvent + 1), 0)));
}

TEST(CheckpointMachine, RestoredPollsObeyStopStartLikeLiveOnes)
{
    // A stop()/start() (disarm()/arm()) pair must leave exactly one
    // sample (poll) chain running, whether the pending event it
    // orphans was scheduled live or came back from a snapshot.
    Rig probe = makeRig(8, 1, 6, 80);
    ASSERT_TRUE(probe.m->run(probe.sources));
    const Tick endTick = probe.m->ctx().now();
    const std::string snap = tmpPrefix("ckpt_restart_polls.gsckpt");

    auto restartAndRun = [endTick](Rig &r) {
        r.sampler->stop();
        r.sampler->start();
        r.m->watchdog()->disarm();
        r.m->watchdog()->arm();
        r.m->runFor(endTick);
    };

    Rig a = makeRig(8, 1, 6, 80);
    addMonitors(a, 3 * endTick);
    ASSERT_FALSE(a.m->run(a.sources, endTick / 2)) << "not mid-run";
    std::string err;
    ASSERT_TRUE(a.m->save(snap, &err)) << err;
    restartAndRun(a);

    Rig b = makeRig(8, 1, 6, 80);
    addMonitors(b, 3 * endTick);
    ASSERT_TRUE(b.m->restore(snap, b.sources, &err)) << err;
    restartAndRun(b);

    EXPECT_EQ(b.sampler->times(), a.sampler->times());
    ASSERT_EQ(b.sampler->series().size(), a.sampler->series().size());
    for (std::size_t i = 0; i < a.sampler->series().size(); ++i) {
        EXPECT_EQ(b.sampler->series()[i].values,
                  a.sampler->series()[i].values)
            << a.sampler->series()[i].path;
    }
    EXPECT_EQ(exportOf(*b.m, b.sampler.get()),
              exportOf(*a.m, a.sampler.get()));
    std::remove(snap.c_str());
}

TEST(CheckpointMachine, WatchdogRollbackRecoversWedgedRun)
{
    // CPU 0 chases pointers in node 3's memory; node 3 dies at 5 us,
    // wedging every outstanding miss. The watchdog's coherence probe
    // trips, the machine rolls back to the 4 us snapshot with fault
    // healing on, and the run completes as if the fault never fired.
    auto m = sys::Machine::buildGS1280(4);

    fault::WatchdogConfig cfg;
    cfg.checkCycles = 500;
    m->armWatchdog(cfg, /*coherenceTimeoutNs=*/20000.0);

    fault::FaultPlan plan;
    plan.nodeDown(5 * tickUs, 3);
    m->faults().schedule(plan);

    const std::string prefix = tmpPrefix("ckpt_rollback");
    m->setCheckpointPolicy(4 * tickUs, prefix);
    sys::Machine::RollbackPolicy rb;
    rb.snapshotPath = prefix + ".1.gsckpt";
    rb.maxRetries = 3;
    rb.healFaults = true;
    m->setRollbackPolicy(rb);

    wl::PointerChase chase(m->cpuAddr(3, 0), 1 << 20, 64, 800);
    EXPECT_TRUE(m->run({&chase}));
    EXPECT_EQ(m->checkpointRollbacks(), 1u);
    EXPECT_EQ(m->checkpointRestores(), 1u);
    EXPECT_TRUE(m->faults().faultsSuppressed());
    EXPECT_GT(m->telemetry().value("ckpt.rollbacks"), 0.0);

    for (std::uint64_t n = 1; n <= m->checkpointSaves() + 2; ++n)
        std::remove(
            (prefix + "." + std::to_string(n) + ".gsckpt").c_str());
}

TEST(CheckpointMachine, RollbackRetryBudgetExhaustedDiesLoudly)
{
    // healFaults off: the restored run re-applies the same fault and
    // wedges again; after maxRetries rollbacks the machine must
    // hard-fail with the diagnostic rather than loop forever.
    auto runIt = [] {
        auto m = sys::Machine::buildGS1280(4);
        fault::WatchdogConfig cfg;
        cfg.checkCycles = 500;
        m->armWatchdog(cfg, /*coherenceTimeoutNs=*/20000.0);
        fault::FaultPlan plan;
        plan.nodeDown(5 * tickUs, 3);
        m->faults().schedule(plan);
        const std::string prefix =
            tmpPrefix("ckpt_rollback_exhaust");
        m->setCheckpointPolicy(4 * tickUs, prefix);
        sys::Machine::RollbackPolicy rb;
        rb.snapshotPath = prefix + ".1.gsckpt";
        rb.maxRetries = 1;
        rb.healFaults = false;
        m->setRollbackPolicy(rb);
        wl::PointerChase chase(m->cpuAddr(3, 0), 1 << 20, 64, 800);
        m->run({&chase});
    };
    EXPECT_EXIT(runIt(), ::testing::ExitedWithCode(1),
                "retry budget exhausted");
}

} // namespace
