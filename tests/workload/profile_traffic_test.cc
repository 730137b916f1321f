/** @file Profile-driven traffic tests: stream shape + simulated IPC
 *  cross-check against the analytic CPI model.
 *
 *  ProfileTraffic turns an analytic BenchProfile (the SPEC models of
 *  Figures 8-11) into an executable address stream: per
 *  1000-instruction block it emits each working-set component's L1
 *  misses as line-granular accesses marching through a region of the
 *  component's footprint, preceded by the block's core compute time
 *  (cpiBase). Replaying a profile through the full machine
 *  cross-checks the analytic CPI model. No bench uses it, so it
 *  lives here with its only callers. */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "cpu/analytic_core.hh"
#include "cpu/traffic.hh"
#include "sim/logging.hh"
#include "system/machine.hh"
#include "workload/nas_sp.hh"
#include "workload/nas_ft.hh"
#include "workload/spec_profiles.hh"

namespace
{

using namespace gs;
using namespace gs::wl;

/** Executable form of a BenchProfile. */
class ProfileTraffic : public cpu::TrafficSource
{
  public:
    /**
     * @param profile the benchmark model to replay
     * @param base start of this CPU's data region
     * @param clock_ghz core clock (scales cpiBase into think time)
     * @param blocks how many 1000-instruction blocks to run
     */
    ProfileTraffic(const cpu::BenchProfile &profile, mem::Addr base,
                   double clock_ghz, std::uint64_t blocks)
        : clockGHz(clock_ghz),
          thinkNsPerBlock(1000.0 * profile.cpiBase / clock_ghz),
          blocksLeft(blocks)
    {
        gs_assert(clock_ghz > 0 && blocks > 0);
        mem::Addr cursor = base;
        for (const auto &ws : profile.workingSet) {
            Component c;
            c.base = cursor;
            c.lines = std::max<std::uint64_t>(
                1, static_cast<std::uint64_t>(ws.sizeMB * 1024 * 1024) /
                       mem::lineBytes);
            // At least one access per block: densities below 1/1k
            // round up.
            c.opsPerBlock =
                std::max(1, static_cast<int>(std::lround(ws.missPer1k)));
            comps.push_back(c);
            cursor += c.lines * mem::lineBytes;
        }
        gs_assert(!comps.empty(), "profile has no working set");
    }

    std::optional<cpu::MemOp>
    next() override
    {
        if (blocksLeft == 0)
            return std::nullopt;
        Component &c = comps[compIdx];
        cpu::MemOp op;
        op.addr = c.base + (c.cursor % c.lines) * mem::lineBytes;
        op.write = (c.cursor & 3) == 3; // ~1/4 of misses dirty lines
        c.cursor += 1;
        if (!blockStarted) {
            // The block's core compute rides in front of its first
            // miss.
            op.thinkNs = thinkNsPerBlock;
            blockStarted = true;
        }
        if (++opInComp >= c.opsPerBlock) {
            opInComp = 0;
            if (++compIdx >= comps.size()) {
                compIdx = 0;
                blockStarted = false;
                blocksDone += 1;
                blocksLeft -= 1;
            }
        }
        return op;
    }

    /** Instructions represented by the stream so far. */
    double
    instructionsIssued() const
    {
        return static_cast<double>(blocksDone) * 1000.0;
    }

    /** Simulated IPC given the elapsed time of the consuming run. */
    double
    ipc(double elapsed_ns) const
    {
        return instructionsIssued() / (elapsed_ns * clockGHz);
    }

  private:
    struct Component
    {
        mem::Addr base = 0;      ///< region start
        std::uint64_t lines = 0; ///< region size in lines
        int opsPerBlock = 0;     ///< accesses per 1000 instrs
        std::uint64_t cursor = 0;
    };

    double clockGHz;
    double thinkNsPerBlock;
    std::uint64_t blocksLeft;
    std::uint64_t blocksDone = 0;

    std::vector<Component> comps;
    std::size_t compIdx = 0;
    int opInComp = 0;
    bool blockStarted = false;
};

TEST(ProfileTraffic, EmitsTheConfiguredDensity)
{
    cpu::BenchProfile p;
    p.cpiBase = 1.0;
    p.workingSet = {{1.0, 4.0}, {64.0, 2.0}};
    ProfileTraffic t(p, 0, 1.0, 10);

    int ops = 0, thinkOps = 0, writes = 0;
    while (auto op = t.next()) {
        ops += 1;
        thinkOps += op->thinkNs > 0;
        writes += op->write;
    }
    EXPECT_EQ(ops, 10 * (4 + 2));
    EXPECT_EQ(thinkOps, 10); // one compute bubble per block
    EXPECT_GT(writes, 0);
    EXPECT_DOUBLE_EQ(t.instructionsIssued(), 10000.0);
}

TEST(ProfileTraffic, ComponentsOccupyDisjointRegions)
{
    cpu::BenchProfile p;
    p.workingSet = {{1.0, 2.0}, {2.0, 2.0}};
    ProfileTraffic t(p, 1 << 20, 1.15, 5000);
    mem::Addr smallEnd = (1 << 20) + (1ULL << 20);
    bool sawSmall = false, sawBig = false;
    while (auto op = t.next()) {
        if (op->addr < smallEnd)
            sawSmall = true;
        else
            sawBig = true;
        EXPECT_GE(op->addr, 1u << 20);
    }
    EXPECT_TRUE(sawSmall);
    EXPECT_TRUE(sawBig);
}

TEST(ProfileTraffic, SimulatedSwimIpcTracksAnalyticModel)
{
    // Replay the swim profile through the full GS1280 machine and
    // compare against the closed-form CPI model it was derived from.
    const auto &swim = specProfile("swim");
    auto m = sys::Machine::buildGS1280(2);
    ProfileTraffic traffic(swim, m->cpuAddr(0, 0), 1.15, 1500);
    std::vector<cpu::TrafficSource *> sources{&traffic};
    ASSERT_TRUE(m->run(sources, 5000 * tickMs));

    double simIpc = traffic.ipc(m->core(0).stats().elapsedNs());
    double modelIpc =
        cpu::evaluateIpc(swim, cpu::MachineTiming::gs1280()).ipc;
    EXPECT_NEAR(simIpc, modelIpc, 0.45 * modelIpc);
}

TEST(ProfileTraffic, CacheResidentProfileRunsNearCoreBound)
{
    cpu::BenchProfile p;
    p.cpiBase = 0.7;
    p.workingSet = {{0.5, 2.0}};
    auto m = sys::Machine::buildGS1280(2);
    ProfileTraffic traffic(p, m->cpuAddr(0, 0), 1.15, 2000);
    std::vector<cpu::TrafficSource *> sources{&traffic};
    ASSERT_TRUE(m->run(sources, 5000 * tickMs));
    double simIpc = traffic.ipc(m->core(0).stats().elapsedNs());
    EXPECT_GT(simIpc, 0.9); // ~1/cpiBase once the 0.5 MB set caches
}

TEST(ProfileTraffic, StripingDegradesSimulatedSwim)
{
    // The Figure 25 effect, in simulation rather than the model.
    auto runSwim = [](bool striped) {
        sys::Gs1280Options opt;
        opt.striped = striped;
        auto m = sys::Machine::buildGS1280(8, opt);
        ProfileTraffic traffic(specProfile("swim"), m->cpuAddr(0, 0),
                               1.15, 1200);
        std::vector<cpu::TrafficSource *> sources{&traffic};
        EXPECT_TRUE(m->run(sources, 5000 * tickMs));
        return m->core(0).stats().elapsedNs();
    };
    double plain = runSwim(false);
    double striped = runSwim(true);
    EXPECT_GT(striped, 1.05 * plain);
    EXPECT_LT(striped, 1.60 * plain);
}

TEST(NasFT, AllToAllTouchesEveryPeer)
{
    NasFtParams p;
    p.iterations = 1;
    p.fftLines = 16;
    p.exchangeLinesPerPeer = 4;
    NasFT ft(2, 8, p);
    std::set<NodeId> peers;
    int local = 0;
    while (auto op = ft.next()) {
        NodeId n = mem::regionNode(op->addr);
        if (n == 2)
            local += 1;
        else
            peers.insert(n);
    }
    EXPECT_EQ(peers.size(), 7u); // all other ranks
    EXPECT_EQ(local, 16 * 3);
}

TEST(NasFT, TransposeVolumeScalesWithRanks)
{
    auto remoteOps = [](int ranks) {
        NasFtParams p;
        p.iterations = 1;
        p.fftLines = 8;
        p.exchangeLinesPerPeer = 4;
        NasFT ft(0, ranks, p);
        int remote = 0;
        while (auto op = ft.next())
            remote += mem::regionNode(op->addr) != 0;
        return remote;
    };
    EXPECT_EQ(remoteOps(4), 3 * 4);
    EXPECT_EQ(remoteOps(8), 7 * 4);
}

TEST(NasFT, StressesLinksMoreThanSP)
{
    // For the same volume of remote lines, FT's all-to-all crosses
    // more of the fabric than SP's one-hop neighbour pencils, so it
    // accumulates more link-flits.
    auto linkShare = [](bool ft) {
        auto m = sys::Machine::buildGS1280(8);
        std::vector<std::unique_ptr<cpu::TrafficSource>> gens;
        std::vector<cpu::TrafficSource *> sources;
        for (int c = 0; c < 8; ++c) {
            if (ft) {
                NasFtParams p;
                p.fftLines = 1024;
                p.exchangeLinesPerPeer = 64; // 7 x 64 remote lines
                gens.push_back(std::make_unique<wl::NasFT>(c, 8, p));
            } else {
                NasSpParams p;
                p.sweepLines = 1024;
                p.exchangeLines = 224; // 2 x 224 remote lines
                gens.push_back(std::make_unique<wl::NasSP>(c, 8, p));
            }
            sources.push_back(gens.back().get());
        }
        EXPECT_TRUE(m->run(sources, 30000 * tickMs));
        double flits = 0;
        for (NodeId n = 0; n < 8; ++n)
            for (int p = 0; p < 4; ++p)
                flits += static_cast<double>(
                    m->network().linkBusyFlits(n, p));
        return flits;
    };
    EXPECT_GT(linkShare(true), 1.3 * linkShare(false));
}

} // namespace
