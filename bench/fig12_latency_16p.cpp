/**
 * @file
 * Figure 12: local/remote memory latency from CPU0 to every CPU of a
 * 16-CPU machine, GS1280 vs GS320, plus the Read-Dirty comparison
 * (the paper's 4x average / 6.6x read-dirty advantage).
 */

#include <iostream>
#include <memory>

#include "common.hh"
#include "sim/args.hh"
#include "workload/pointer_chase.hh"

namespace
{

using namespace gs;

/**
 * Read-Dirty latency 0 <- dst: dst first dirties the lines in its
 * own region, then CPU0 chases them — every load forwards from
 * dst's cache.
 */
double
readDirtyNs(sys::Machine &m, int dst, std::uint64_t loads)
{
    const std::uint64_t span = loads * 64;
    // dst dirties the lines first (Modified in dst's L2).
    struct Writes : cpu::TrafficSource
    {
        mem::Addr base;
        std::uint64_t left;
        std::optional<cpu::MemOp> next() override
        {
            if (left == 0)
                return std::nullopt;
            left -= 1;
            cpu::MemOp op;
            op.addr = base + left * 64;
            op.write = true;
            return op;
        }
    } writes;
    writes.base = m.cpuAddr(dst, 0);
    writes.left = loads;
    std::vector<cpu::TrafficSource *> wsrc(
        static_cast<std::size_t>(dst) + 1, nullptr);
    wsrc[static_cast<std::size_t>(dst)] = &writes;
    if (!m.run(wsrc))
        return -1;

    wl::PointerChase chase(m.cpuAddr(dst, 0), span, 64, loads);
    std::vector<cpu::TrafficSource *> src{&chase};
    if (!m.run(src))
        return -1;
    return m.core(0).stats().elapsedNs() / static_cast<double>(loads);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace gs;
    Args args(argc, argv,
              bench::withSweepArgs(
                  {{"loads", "loads per probe (default 4000)"}}));
    auto loads = static_cast<std::uint64_t>(args.getInt("loads", 4000, 1));
    auto runner = bench::makeRunner(args);

    printBanner(std::cout,
                "Figure 12: GS1280 vs GS320 latency, 16 CPUs (ns)");

    // One sweep point per destination; each probes a fresh pair of
    // machines so points are independent (and always cold).
    struct Pair
    {
        double gs1280, gs320;
    };
    std::vector<int> dsts(16);
    for (int d = 0; d < 16; ++d)
        dsts[static_cast<std::size_t>(d)] = d;

    auto pairs = runner.map(
        dsts, [&](int dst, SweepPoint) -> Pair {
            auto gs1280 = sys::Machine::buildGS1280(16);
            auto gs320 = sys::Machine::buildGS320(16);
            return {bench::dependentLoadNs(*gs1280, 0, dst, 16 << 20,
                                           64, loads),
                    bench::dependentLoadNs(*gs320, 0, dst, 64 << 20,
                                           64, loads / 2)};
        });

    Table t({"path", "GS1280/1.15GHz", "GS320/1.2GHz"});
    double sumA = 0, sumB = 0;
    for (int dst = 0; dst < 16; ++dst) {
        const auto &p = pairs[static_cast<std::size_t>(dst)];
        sumA += p.gs1280;
        sumB += p.gs320;
        t.addRow({"0 ->" + std::to_string(dst),
                  Table::num(p.gs1280, 0), Table::num(p.gs320, 0)});
    }
    t.addRow({"average", Table::num(sumA / 16, 0),
              Table::num(sumB / 16, 0)});
    t.print(std::cout);
    std::cout << "\nread-clean average advantage: "
              << Table::num(sumB / sumA, 2)
              << "x   (paper: ~4x)\n";

    // Read-Dirty: remote CPU's cache supplies the line. Two
    // independent points, one per system.
    auto dirty = runner.map(
        std::size_t(2), [&](SweepPoint sp) -> double {
            if (sp.index == 0) {
                auto m = sys::Machine::buildGS1280(16);
                return readDirtyNs(*m, 10, 3000); // 4 hops away
            }
            auto m = sys::Machine::buildGS320(16);
            return readDirtyNs(*m, 12, 1500); // remote QBB
        });
    std::cout << "read-dirty, worst-case remote: GS1280 "
              << Table::num(dirty[0], 0) << " ns vs GS320 "
              << Table::num(dirty[1], 0) << " ns -> "
              << Table::num(dirty[1] / dirty[0], 2)
              << "x   (paper: ~6.6x)\n";
    return 0;
}
