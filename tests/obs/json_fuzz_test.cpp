/// Deterministic pseudo-fuzz of obs::parse_json, the reader behind
/// tools/bench_diff and svo_cli trace-report: byte soup and mutated
/// JsonWriter output (truncations, byte flips, inserted brackets, cut
/// ranges) must each either parse or throw IoError — never crash and
/// never throw anything else.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "obs/json_parse.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace svo::obs {
namespace {

/// True when `text` parses, false when it throws IoError; any other
/// exception escapes and fails the test.
bool parses(const std::string& text) {
  try {
    (void)parse_json(text);
    return true;
  } catch (const IoError&) {
    return false;
  }
}

/// A document exercising everything JsonWriter emits: nested objects and
/// arrays, escapes, control bytes, integers at the int64/uint64 edges,
/// non-finite doubles (written as null) and booleans.
std::string writer_document(bool pretty) {
  std::ostringstream os;
  JsonWriter w(os, pretty);
  w.begin_object();
  w.kv("name", "bench \"warm\"\n\t\x01 end");
  w.kv("nodes", std::uint64_t{18446744073709551615ULL});
  w.kv("delta", std::int64_t{std::numeric_limits<std::int64_t>::min()});
  w.kv("ratio", 0.1 + 0.2);
  w.kv("nan", std::nan(""));
  w.kv("inf", std::numeric_limits<double>::infinity());
  w.kv("ok", true);
  w.key("events");
  w.begin_array();
  for (int i = 0; i < 4; ++i) {
    w.begin_object();
    w.kv("ph", "X");
    w.kv("ts", 1.5 * i);
    w.key("args");
    w.begin_object();
    w.kv("gsps", i);
    w.key("path");
    w.begin_array();
    w.value("a").value(false).value(-3);
    w.end_array();
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return os.str();
}

TEST(JsonFuzzTest, ByteSoupParsesOrThrowsIoError) {
  static constexpr char kAlphabet[] =
      "{}[]{}[]\"\"::,,0123456789.-+eE truefalsenull\\u00x\t\n";
  util::Xoshiro256 rng(0x150F);
  std::size_t parsed = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string soup(rng.index(200), ' ');
    for (char& c : soup) {
      c = rng.index(8) == 0 ? static_cast<char>(rng.index(256))
                            : kAlphabet[rng.index(sizeof(kAlphabet) - 1)];
    }
    if (parses(soup)) ++parsed;
  }
  // Soup is almost never valid JSON; the point is that it never crashes.
  EXPECT_LT(parsed, 3000u);
}

TEST(JsonFuzzTest, MutatedWriterOutputParsesOrThrowsIoError) {
  for (const bool pretty : {false, true}) {
    const std::string doc = writer_document(pretty);
    ASSERT_TRUE(parses(doc)) << doc;
    util::Xoshiro256 rng(pretty ? 71 : 70);
    std::size_t parsed = 0;
    for (int trial = 0; trial < 4000; ++trial) {
      std::string m = doc;
      switch (rng.index(4)) {
        case 0:  // truncate
          m.resize(rng.index(m.size()));
          break;
        case 1:  // flip bytes
          for (std::size_t f = 1 + rng.index(4); f-- > 0;) {
            m[rng.index(m.size())] ^= static_cast<char>(1U << rng.index(8));
          }
          break;
        case 2: {  // insert a run of brackets, sometimes past the limit
          static constexpr char kBrackets[] = "[]{}";
          const std::size_t run =
              rng.index(4) == 0 ? 250 + rng.index(20'000) : 1 + rng.index(6);
          const char b = kBrackets[rng.index(4)];
          m.insert(rng.index(m.size() + 1), std::string(run, b));
          break;
        }
        default: {  // cut a range
          const std::size_t from = rng.index(m.size());
          m.erase(from, rng.index(m.size() - from + 1));
          break;
        }
      }
      if (parses(m)) ++parsed;
    }
    // Some mutations keep the document valid (a flipped bit inside a
    // string or digit run); most do not.
    EXPECT_GT(parsed, 0u);
    EXPECT_LT(parsed, 4000u);
  }
}

TEST(JsonFuzzTest, EveryPrefixOfWriterOutputIsRejected) {
  // A strict prefix of a top-level object is never a complete value.
  const std::string doc = writer_document(false);
  for (std::size_t len = 0; len < doc.size(); ++len) {
    EXPECT_FALSE(parses(doc.substr(0, len))) << "prefix " << len;
  }
}

}  // namespace
}  // namespace svo::obs
