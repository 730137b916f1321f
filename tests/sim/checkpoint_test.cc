/**
 * @file
 * Snapshot format tests (sim/checkpoint.hh): field round-trips,
 * section framing, and — the robustness contract — that corrupt,
 * truncated, or version-mismatched snapshots are rejected with a
 * clear error instead of being half-applied.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "sim/checkpoint.hh"

namespace
{

using namespace gs;

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + name;
}

/** A two-section snapshot with every field type in use. */
ckpt::Serializer
sampleSnapshot()
{
    ckpt::Serializer s;
    s.beginSection(ckpt::secMeta);
    s.put8(7);
    s.put16(0xbeef);
    s.put32(0xdeadbeefu);
    s.put64(0x0123456789abcdefull);
    s.putI32(-42);
    s.putI64(-7000000000ll);
    s.putBool(true);
    s.putF64(2.5);
    s.putStr("net.latency");
    s.endSection();

    s.beginSection(ckpt::secEvtq);
    ckpt::EventDesc d;
    d.kind = ckpt::NetTick;
    d.owner = 3;
    d.a = -1;
    d.b = 2;
    d.c = 3;
    d.u = 99;
    d.v = 100;
    s.putDesc(d);
    s.endSection();
    return s;
}

void
readSample(ckpt::Deserializer &d)
{
    ASSERT_TRUE(d.enterSection(ckpt::secMeta, "META")) << d.error();
    EXPECT_EQ(d.get8(), 7);
    EXPECT_EQ(d.get16(), 0xbeef);
    EXPECT_EQ(d.get32(), 0xdeadbeefu);
    EXPECT_EQ(d.get64(), 0x0123456789abcdefull);
    EXPECT_EQ(d.getI32(), -42);
    EXPECT_EQ(d.getI64(), -7000000000ll);
    EXPECT_TRUE(d.getBool());
    EXPECT_EQ(d.getF64(), 2.5);
    EXPECT_EQ(d.getStr(), "net.latency");
    d.leaveSection("META");

    ASSERT_TRUE(d.enterSection(ckpt::secEvtq, "EVTQ")) << d.error();
    ckpt::EventDesc e = d.getDesc();
    EXPECT_EQ(e.kind, ckpt::NetTick);
    EXPECT_EQ(e.owner, 3);
    EXPECT_EQ(e.a, -1);
    EXPECT_EQ(e.b, 2);
    EXPECT_EQ(e.c, 3);
    EXPECT_EQ(e.u, 99u);
    EXPECT_EQ(e.v, 100u);
    d.leaveSection("EVTQ");
    EXPECT_TRUE(d.ok()) << d.error();
}

TEST(CheckpointFormat, FieldRoundTripInMemory)
{
    auto s = sampleSnapshot();
    ckpt::Deserializer d(s.buffer().data(), s.size());
    readSample(d);
}

TEST(CheckpointFormat, FileRoundTripThroughHeader)
{
    const std::string path = tmpPath("ckpt_roundtrip.gsckpt");
    auto s = sampleSnapshot();
    std::string err;
    ASSERT_TRUE(ckpt::writeSnapshot(path, s, &err)) << err;

    std::vector<std::uint8_t> buf;
    std::size_t off = 0;
    ASSERT_TRUE(ckpt::readSnapshot(path, &buf, &off, &err)) << err;
    EXPECT_EQ(off, 16u); // 8-byte magic + version + reserved
    ckpt::Deserializer d(buf.data() + off, buf.size() - off);
    readSample(d);
    std::remove(path.c_str());
}

TEST(CheckpointFormat, AtomicWriteLeavesNoTmpFile)
{
    const std::string path = tmpPath("ckpt_atomic.gsckpt");
    auto s = sampleSnapshot();
    std::string err;
    ASSERT_TRUE(ckpt::writeSnapshot(path, s, &err)) << err;
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good()) << "tmp file left behind";
    std::remove(path.c_str());
}

TEST(CheckpointFormat, RejectsMissingFile)
{
    std::vector<std::uint8_t> buf;
    std::size_t off = 0;
    std::string err;
    EXPECT_FALSE(ckpt::readSnapshot(tmpPath("ckpt_nonexistent.gsckpt"),
                                    &buf, &off, &err));
    EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
}

TEST(CheckpointFormat, RejectsBadMagic)
{
    const std::string path = tmpPath("ckpt_badmagic.gsckpt");
    {
        std::ofstream f(path, std::ios::binary);
        f << "NOTACKPTxxxxxxxxyyyyyyyy";
    }
    std::vector<std::uint8_t> buf;
    std::size_t off = 0;
    std::string err;
    EXPECT_FALSE(ckpt::readSnapshot(path, &buf, &off, &err));
    EXPECT_NE(err.find("not a snapshot"), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(CheckpointFormat, RejectsVersionMismatch)
{
    const std::string path = tmpPath("ckpt_badver.gsckpt");
    auto s = sampleSnapshot();
    std::string err;
    ASSERT_TRUE(ckpt::writeSnapshot(path, s, &err)) << err;
    {
        // Bump the little-endian version word at offset 8.
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(8);
        char v = static_cast<char>(ckpt::formatVersion + 1);
        f.write(&v, 1);
    }
    std::vector<std::uint8_t> buf;
    std::size_t off = 0;
    EXPECT_FALSE(ckpt::readSnapshot(path, &buf, &off, &err));
    EXPECT_NE(err.find("format version"), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(CheckpointFormat, RejectsVersion5Snapshot)
{
    // Each older layout must fail the version check up front rather
    // than misparse: v6 dropped the parallel engine's tick-chain
    // liveness fields from each NETW shard, v7 added the watchdog's
    // and the sampler's liveness generations, and v8 dropped the
    // per-link flit counters from NETW.
    const std::string path = tmpPath("ckpt_old.gsckpt");
    for (char version : {5, 6, 7}) {
        SCOPED_TRACE("version " + std::to_string(version));
        std::string err;
        ASSERT_TRUE(ckpt::writeSnapshot(path, sampleSnapshot(), &err))
            << err;
        {
            std::fstream f(path, std::ios::binary | std::ios::in |
                                     std::ios::out);
            f.seekp(8);
            const char v[4] = {version, 0, 0, 0};
            f.write(v, 4);
        }
        std::vector<std::uint8_t> buf;
        std::size_t off = 0;
        EXPECT_FALSE(ckpt::readSnapshot(path, &buf, &off, &err));
        EXPECT_NE(err.find("format version"), std::string::npos) << err;
    }
    std::remove(path.c_str());
}

TEST(CheckpointFormat, RejectsFileSmallerThanHeader)
{
    const std::string path = tmpPath("ckpt_tiny.gsckpt");
    {
        std::ofstream f(path, std::ios::binary);
        f << "GS12";
    }
    std::vector<std::uint8_t> buf;
    std::size_t off = 0;
    std::string err;
    EXPECT_FALSE(ckpt::readSnapshot(path, &buf, &off, &err));
    EXPECT_NE(err.find("smaller than the header"), std::string::npos)
        << err;
    std::remove(path.c_str());
}

TEST(CheckpointFormat, BitFlipInPayloadFailsSectionCrc)
{
    auto s = sampleSnapshot();
    // Flip one payload bit — every payload byte sits behind a frame,
    // so any single flip past the first frame must break a CRC (or
    // the frame fields themselves, caught as layout errors).
    std::vector<std::uint8_t> bytes(s.buffer().begin(),
                                    s.buffer().end());
    bytes[20] ^= 0x10; // inside the META payload
    ckpt::Deserializer d(bytes.data(), bytes.size());
    EXPECT_FALSE(d.enterSection(ckpt::secMeta, "META"));
    EXPECT_NE(d.error().find("CRC mismatch"), std::string::npos)
        << d.error();
}

TEST(CheckpointFormat, TruncatedSectionIsRejected)
{
    auto s = sampleSnapshot();
    std::vector<std::uint8_t> bytes(s.buffer().begin(),
                                    s.buffer().end());
    bytes.resize(20); // frame + 4 payload bytes: length claim unmet
    ckpt::Deserializer d(bytes.data(), bytes.size());
    EXPECT_FALSE(d.enterSection(ckpt::secMeta, "META"));
    EXPECT_NE(d.error().find("truncated"), std::string::npos)
        << d.error();
}

TEST(CheckpointFormat, WrongSectionOrderIsALayoutError)
{
    auto s = sampleSnapshot();
    ckpt::Deserializer d(s.buffer().data(), s.size());
    EXPECT_FALSE(d.enterSection(ckpt::secEvtq, "EVTQ"));
    EXPECT_NE(d.error().find("expected section"), std::string::npos)
        << d.error();
}

TEST(CheckpointFormat, UnderReadingASectionIsALayoutError)
{
    auto s = sampleSnapshot();
    ckpt::Deserializer d(s.buffer().data(), s.size());
    ASSERT_TRUE(d.enterSection(ckpt::secMeta, "META"));
    d.get8(); // leave the rest unread
    d.leaveSection("META");
    EXPECT_FALSE(d.ok());
    EXPECT_NE(d.error().find("unread byte"), std::string::npos)
        << d.error();
}

TEST(CheckpointFormat, ErrorsAreStickyAndGettersReturnZero)
{
    auto s = sampleSnapshot();
    ckpt::Deserializer d(s.buffer().data(), s.size());
    ASSERT_TRUE(d.enterSection(ckpt::secMeta, "META"));
    d.fail("injected failure");
    EXPECT_EQ(d.get64(), 0u);
    EXPECT_EQ(d.getStr(), "");
    EXPECT_FALSE(d.enterSection(ckpt::secEvtq, "EVTQ"));
    EXPECT_EQ(d.error(), "injected failure"); // first error wins
}

TEST(CheckpointFormat, ReadingPastSectionEndIsBounded)
{
    ckpt::Serializer s;
    s.beginSection(ckpt::secMeta);
    s.put8(1);
    s.endSection();
    s.beginSection(ckpt::secEvtq);
    s.put64(2);
    s.endSection();

    ckpt::Deserializer d(s.buffer().data(), s.size());
    ASSERT_TRUE(d.enterSection(ckpt::secMeta, "META"));
    d.get8();
    d.get64(); // would spill into the next section's frame
    EXPECT_FALSE(d.ok());
    EXPECT_NE(d.error().find("past section"), std::string::npos)
        << d.error();
}

} // namespace
