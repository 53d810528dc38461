/**
 * @file
 * Multi-threaded EventSink test (runs under TSan via the "par" label):
 * many pool workers emitting concurrently must produce a JSONL file in
 * which every line is one complete, standalone JSON object — no
 * interleaved partial writes, no torn records.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "obs/events.hh"
#include "obs/json.hh"
#include "par/pool.hh"

namespace dfault::obs {
namespace {

TEST(EventSinkMt, ConcurrentEmittersNeverInterleaveLines)
{
    constexpr std::size_t kEmitters = 64;
    constexpr int kPerEmitter = 50;

    const std::string path =
        testing::TempDir() + "dfault_event_sink_mt.jsonl";
    par::Pool::setGlobalThreads(8);
    auto &sink = EventSink::instance();
    sink.open(path);

    // Payloads long enough to tear if emit() ever wrote in pieces,
    // with characters that stress the escaper.
    par::Pool::global().parallelFor(kEmitters, [&](std::size_t i) {
        for (int k = 0; k < kPerEmitter; ++k) {
            JsonWriter w;
            w.field("emitter", static_cast<std::uint64_t>(i));
            w.field("k", k);
            w.field("payload",
                    "quote \" backslash \\ newline \n tab \t " +
                        std::string(100, 'x'));
            sink.emit("mt_test", w);
        }
    });

    const std::uint64_t emitted = sink.emitted();
    sink.close();
    EXPECT_EQ(emitted, kEmitters * kPerEmitter);

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::string line;
    std::size_t lines = 0;
    std::set<double> seqs;
    while (std::getline(in, line)) {
        ++lines;
        std::string error;
        const auto doc = jsonParse(line, &error);
        ASSERT_TRUE(doc.has_value())
            << "line " << lines << ": " << error << "\n" << line;
        ASSERT_TRUE(doc->isObject());
        EXPECT_EQ(doc->find("type")->string, "mt_test");
        // seq is drawn under the sink lock, so values are unique and
        // appear in file order.
        const double seq = doc->find("seq")->number;
        EXPECT_EQ(seq, static_cast<double>(lines - 1));
        seqs.insert(seq);
    }
    EXPECT_EQ(lines, kEmitters * kPerEmitter);
    EXPECT_EQ(seqs.size(), lines);
    std::remove(path.c_str());
}

} // namespace
} // namespace dfault::obs
