/**
 * @file
 * Example: I/O DMA streams crossing the fabric — the paper's
 * future-work direction ("more emphasis on characterizing real I/O
 * intensive applications") made runnable.
 *
 * Starts several device-rate DMA streams across a GS1280 while a
 * CPU runs STREAM, showing (1) per-port I/O bandwidth near the
 * 3.1 GB/s link limit and (2) the IO packet class not disturbing
 * coherent traffic.
 *
 * Usage: io_streams [--cpus=8] [--mb=4]
 */

#include <iostream>
#include <limits>
#include <memory>

#include "sim/args.hh"
#include "sim/table.hh"
#include "system/io.hh"
#include "system/machine.hh"
#include "workload/stream.hh"

int
main(int argc, char **argv)
{
    using namespace gs;
    Args args(argc, argv,
              {{"cpus", "CPU count (default 8)"},
               {"mb", "MB per DMA stream (default 4)"}});
    int cpus = static_cast<int>(
        args.getInt("cpus", 8, 1, std::numeric_limits<int>::max()));
    auto bytes =
        static_cast<std::uint64_t>(args.getInt("mb", 4)) << 20;

    auto m = sys::Machine::buildGS1280(cpus);

    // Disk-to-disk style streams between distant nodes.
    std::vector<std::unique_ptr<sys::IoDma>> streams;
    int pairs = cpus / 2;
    for (int k = 0; k < pairs; ++k) {
        sys::IoDmaParams p;
        p.totalBytes = bytes;
        streams.push_back(std::make_unique<sys::IoDma>(
            m->network(), k, cpus - 1 - k, p));
        streams.back()->attachSink(m->node(cpus - 1 - k));
        streams.back()->start(nullptr);
    }

    // Meanwhile, CPU 0 streams its local memory.
    wl::StreamTriad triad(m->cpuAddr(0, 0), 4 << 20);
    std::vector<cpu::TrafficSource *> sources{&triad};
    bool ok = m->run(sources, 30000 * tickMs);

    // Let the DMA finish.
    m->ctx().queue().runUntil(m->ctx().now() + 100 * tickMs);

    printBanner(std::cout, "I/O DMA streams across a " +
                               std::to_string(cpus) + "P GS1280");
    Table t({"stream", "delivered GB/s", "packets"});
    for (std::size_t k = 0; k < streams.size(); ++k) {
        t.addRow({std::to_string(k) + " -> " +
                      std::to_string(cpus - 1 - static_cast<int>(k)),
                  Table::num(streams[k]->deliveredGBs(), 2),
                  Table::num(streams[k]->packetsDelivered())});
    }
    t.print(std::cout);

    double gbs = static_cast<double>(triad.linesProcessed()) * 192.0 /
                 m->core(0).stats().elapsedNs();
    std::cout << "\nconcurrent STREAM Triad on CPU0: "
              << Table::num(gbs, 2) << " GB/s"
              << (ok ? "" : "  [TIMEOUT]")
              << "\n(the IO class rides its own virtual channels; "
                 "coherent traffic barely notices)\n";
    return 0;
}
