#include <gtest/gtest.h>

#include "protocol/qipc/compress.h"
#include "protocol/qipc/qipc.h"
#include "testing/market_data.h"

namespace hyperq {
namespace qipc {
namespace {

/// Property sweep: randomly generated Q values of every wire-encodable
/// shape must round-trip through QIPC byte-identically under Q match
/// semantics (nulls included).
class QipcRoundTrip : public ::testing::TestWithParam<uint64_t> {
 protected:
  testing::Rng rng_{GetParam()};

  QValue RandomAtom() {
    switch (rng_.Below(8)) {
      case 0:
        return QValue::Long(static_cast<int64_t>(rng_.Below(1000)) - 500);
      case 1:
        return QValue::Float(rng_.NextDouble() * 1e6 - 5e5);
      case 2:
        return QValue::Sym(std::string(1 + rng_.Below(6), 'a' + rng_.Below(26)));
      case 3:
        return QValue::Bool(rng_.Below(2) == 0);
      case 4:
        return QValue::Date(static_cast<int64_t>(rng_.Below(10000)));
      case 5:
        return QValue::Time(static_cast<int64_t>(rng_.Below(86400000)));
      case 6:
        return QValue::NullOf(QType::kLong);
      default:
        return QValue::Char('a' + rng_.Below(26));
    }
  }

  QValue RandomList(int depth) {
    switch (rng_.Below(depth > 0 ? 6 : 5)) {
      case 0: {
        std::vector<int64_t> v(rng_.Below(20));
        for (auto& x : v) {
          x = rng_.Below(8) == 0 ? kNullLong
                                 : static_cast<int64_t>(rng_.Below(100));
        }
        return QValue::IntList(QType::kLong, std::move(v));
      }
      case 1: {
        std::vector<double> v(rng_.Below(20));
        for (auto& x : v) x = rng_.NextDouble();
        return QValue::FloatList(QType::kFloat, std::move(v));
      }
      case 2: {
        std::vector<std::string> v(rng_.Below(12));
        for (auto& s : v) s = std::string(rng_.Below(5), 'x');
        return QValue::Syms(std::move(v));
      }
      case 3: {
        std::string s(rng_.Below(30), ' ');
        for (auto& c : s) c = 'a' + rng_.Below(26);
        return QValue::Chars(std::move(s));
      }
      case 4: {
        std::vector<int64_t> v(rng_.Below(10));
        for (auto& x : v) x = rng_.Below(2);
        return QValue::IntList(QType::kBool, std::move(v));
      }
      default: {
        std::vector<QValue> items(rng_.Below(6));
        for (auto& e : items) {
          e = rng_.Below(2) == 0 ? RandomAtom() : RandomList(depth - 1);
        }
        return QValue::Mixed(std::move(items));
      }
    }
  }

  QValue RandomTable() {
    size_t rows = rng_.Below(15);
    std::vector<int64_t> a(rows);
    std::vector<double> b(rows);
    std::vector<std::string> c(rows);
    for (size_t i = 0; i < rows; ++i) {
      a[i] = static_cast<int64_t>(rng_.Below(100));
      b[i] = rng_.NextDouble();
      c[i] = std::string(1 + rng_.Below(3), 'q');
    }
    return QValue::MakeTableUnchecked(
        {"a", "b", "c"},
        {QValue::IntList(QType::kLong, std::move(a)),
         QValue::FloatList(QType::kFloat, std::move(b)),
         QValue::Syms(std::move(c))});
  }

  void ExpectRoundTrip(const QValue& v) {
    auto bytes = EncodeMessage(v, MsgType::kResponse);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    auto decoded = DecodeMessage(*bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(QValue::Match(v, decoded->value))
        << "value: " << v.ToString()
        << "\ndecoded: " << decoded->value.ToString();
  }
};

TEST_P(QipcRoundTrip, Atoms) {
  for (int i = 0; i < 30; ++i) ExpectRoundTrip(RandomAtom());
}

TEST_P(QipcRoundTrip, Lists) {
  for (int i = 0; i < 30; ++i) ExpectRoundTrip(RandomList(2));
}

TEST_P(QipcRoundTrip, Tables) {
  for (int i = 0; i < 10; ++i) ExpectRoundTrip(RandomTable());
}

TEST_P(QipcRoundTrip, Dicts) {
  for (int i = 0; i < 10; ++i) {
    size_t n = rng_.Below(8);
    std::vector<std::string> keys(n);
    for (size_t k = 0; k < n; ++k) keys[k] = std::string(1, 'a' + k);
    std::vector<QValue> vals(n);
    for (auto& v : vals) v = RandomAtom();
    ExpectRoundTrip(QValue::MakeDictUnchecked(QValue::Syms(keys),
                                              QValue::Mixed(vals)));
  }
}

TEST_P(QipcRoundTrip, KeyedTables) {
  QValue keys = QValue::MakeTableUnchecked(
      {"sym"}, {QValue::Syms({"a", "b"})});
  QValue vals = RandomTable();
  if (vals.Count() != 2) return;  // only pair equal-length sides
  ExpectRoundTrip(QValue::MakeDictUnchecked(keys, vals));
}

TEST_P(QipcRoundTrip, TruncationAlwaysFailsCleanly) {
  QValue v = RandomTable();
  auto bytes = EncodeMessage(v, MsgType::kResponse);
  ASSERT_TRUE(bytes.ok());
  // Any strict prefix must fail with a protocol error, never crash.
  for (size_t cut = 9; cut < bytes->size();
       cut += 1 + rng_.Below(7)) {
    std::vector<uint8_t> prefix(bytes->begin(), bytes->begin() + cut);
    auto r = DecodeMessage(prefix);
    EXPECT_FALSE(r.ok());
  }
}

TEST_P(QipcRoundTrip, CompressedTablesRoundTrip) {
  // Large, repetitive tables compress well and must round-trip exactly.
  size_t rows = 3000;
  std::vector<int64_t> a(rows);
  std::vector<std::string> syms(rows);
  for (size_t i = 0; i < rows; ++i) {
    a[i] = static_cast<int64_t>(rng_.Below(4));
    syms[i] = i % 2 == 0 ? "AAPL" : "GOOG";
  }
  QValue table = QValue::MakeTableUnchecked(
      {"sym", "v"},
      {QValue::Syms(std::move(syms)),
       QValue::IntList(QType::kLong, std::move(a))});
  auto plain = EncodeMessage(table, MsgType::kResponse);
  ASSERT_TRUE(plain.ok());
  auto packed = EncodeMessageCompressed(table, MsgType::kResponse);
  ASSERT_TRUE(packed.ok());
  EXPECT_TRUE(IsCompressedMessage(*packed));
  EXPECT_LT(packed->size(), plain->size());
  auto decoded = DecodeMessage(*packed);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(QValue::Match(table, decoded->value));
}

TEST_P(QipcRoundTrip, IncompressibleDataStaysPlain) {
  // High-entropy payloads must fall back to the plain encoding.
  size_t rows = 2000;
  std::vector<double> v(rows);
  for (auto& x : v) x = rng_.NextDouble();
  QValue list = QValue::FloatList(QType::kFloat, std::move(v));
  auto packed = EncodeMessageCompressed(list, MsgType::kResponse);
  ASSERT_TRUE(packed.ok());
  EXPECT_FALSE(IsCompressedMessage(*packed));
  auto decoded = DecodeMessage(*packed);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(QValue::Match(list, decoded->value));
}

TEST_P(QipcRoundTrip, CompressionRoundTripProperty) {
  // The compress_responses = true path must be value-transparent for every
  // wire-encodable shape: whatever EncodeMessageCompressed produces —
  // compressed or plain fallback — decodes to a matching value.
  for (int i = 0; i < 20; ++i) {
    QValue v;
    switch (rng_.Below(3)) {
      case 0:
        v = RandomList(2);
        break;
      case 1:
        v = RandomTable();
        break;
      default: {
        // Large repetitive lists: guaranteed over the threshold and
        // compressible, so the compressed branch is exercised every round.
        std::vector<int64_t> big(kMinCompressSize, 0);
        for (auto& x : big) x = static_cast<int64_t>(rng_.Below(3));
        v = QValue::IntList(QType::kLong, std::move(big));
        break;
      }
    }
    auto packed = EncodeMessageCompressed(v, MsgType::kResponse);
    ASSERT_TRUE(packed.ok()) << packed.status().ToString();
    auto decoded = DecodeMessage(*packed);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(QValue::Match(v, decoded->value))
        << "value: " << v.ToString()
        << "\ndecoded: " << decoded->value.ToString();
  }
}

TEST_P(QipcRoundTrip, CompressionThresholdBoundary) {
  // A char-list message is 14 bytes of header/envelope + payload; walk the
  // plain message size across the compression threshold and check the
  // on/off decision and decode identity at every boundary case.
  auto chars_for_message_size = [](size_t total) {
    // Highly repetitive payload => always shrinks when compression runs.
    return QValue::Chars(std::string(total - 14, 'r'));
  };
  for (long delta : {-2L, -1L, 0L, 1L, 2L}) {
    size_t target = kMinCompressSize + static_cast<size_t>(delta);
    QValue v = chars_for_message_size(target);
    auto plain = EncodeMessage(v, MsgType::kResponse);
    ASSERT_TRUE(plain.ok());
    ASSERT_EQ(plain->size(), target);  // envelope arithmetic holds
    auto packed = EncodeMessageCompressed(v, MsgType::kResponse);
    ASSERT_TRUE(packed.ok());
    if (target >= kMinCompressSize) {
      EXPECT_TRUE(IsCompressedMessage(*packed))
          << "message of " << target << " bytes should compress";
      EXPECT_LT(packed->size(), plain->size());
    } else {
      EXPECT_FALSE(IsCompressedMessage(*packed))
          << "message of " << target << " bytes is under the threshold";
      EXPECT_EQ(*packed, *plain);
    }
    auto decoded = DecodeMessage(*packed);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(QValue::Match(v, decoded->value));
  }
}

TEST_P(QipcRoundTrip, CompressedStreamFuzzDoesNotCrash) {
  // Random mutations of a compressed stream must fail cleanly or decode to
  // something — never crash or overrun.
  QValue table = QValue::MakeTableUnchecked(
      {"v"}, {QValue::IntList(QType::kLong,
                              std::vector<int64_t>(3000, 7))});
  auto packed = EncodeMessageCompressed(table, MsgType::kResponse);
  ASSERT_TRUE(packed.ok());
  ASSERT_TRUE(IsCompressedMessage(*packed));
  for (int k = 0; k < 50; ++k) {
    std::vector<uint8_t> corrupted = *packed;
    size_t pos = 12 + rng_.Below(corrupted.size() - 12);
    corrupted[pos] ^= static_cast<uint8_t>(1 + rng_.Below(255));
    auto r = DecodeMessage(corrupted);  // must not crash
    (void)r;
  }
}

TEST(QipcHostileFrames, HugeListCountsFailWithoutAllocating) {
  // A list header claiming INT32_MAX elements followed by a few bytes must
  // be refused before anything is sized from the count: 2^31 longs would
  // be 16 GiB.
  const QType kTypes[] = {QType::kLong, QType::kFloat, QType::kReal,
                          QType::kSymbol, QType::kMixed};
  for (QType t : kTypes) {
    std::vector<uint8_t> frame = {1, 1, 0, 0, 0, 0, 0, 0,
                                  static_cast<uint8_t>(t), 0,
                                  0xFF, 0xFF, 0xFF, 0x7F};
    // Symbols get a few terminated names; mixed elements a few long atoms
    // (type -7); the fixed-width lists some payload bytes.
    if (t == QType::kMixed) {
      for (int i = 0; i < 3; ++i) {
        frame.push_back(static_cast<uint8_t>(-7));
        frame.insert(frame.end(), 8, 1);
      }
    } else {
      frame.insert(frame.end(), {'a', 0, 'b', 0, 'c', 0, 'd', 0});
    }
    const uint32_t len = static_cast<uint32_t>(frame.size());
    for (int k = 0; k < 4; ++k) frame[4 + k] = (len >> (8 * k)) & 0xFF;
    auto r = DecodeMessage(frame);
    ASSERT_FALSE(r.ok()) << QTypeName(t);
    EXPECT_EQ(r.status().code(), StatusCode::kProtocolError) << QTypeName(t);
  }
}

TEST(QipcHostileFrames, UnknownCompressionSchemesAreRefused) {
  // A well-formed frame in the retired blocked layout: the 12-byte
  // prelude, then one raw block [plain_len][enc_len == plain_len][payload].
  // Scheme 1 is the only compression a kdb+ peer speaks, so this frame and
  // every other compression byte but 0 and 1 must be refused.
  auto plain = EncodeMessage(QValue::Long(42), MsgType::kResponse);
  ASSERT_TRUE(plain.ok());
  const uint32_t body = static_cast<uint32_t>(plain->size() - 8);
  const uint32_t total = 12 + 8 + body;
  std::vector<uint8_t> frame = {1, static_cast<uint8_t>(MsgType::kResponse),
                                2, 0};
  for (uint32_t v : {total, static_cast<uint32_t>(plain->size()), body,
                     body}) {
    for (int k = 0; k < 4; ++k) frame.push_back((v >> (8 * k)) & 0xFF);
  }
  frame.insert(frame.end(), plain->begin() + 8, plain->end());
  ASSERT_EQ(frame.size(), total);
  for (int scheme = 2; scheme < 256; ++scheme) {
    frame[2] = static_cast<uint8_t>(scheme);
    auto r = DecodeMessage(frame);
    ASSERT_FALSE(r.ok()) << "scheme " << scheme;
    EXPECT_EQ(r.status().code(), StatusCode::kProtocolError)
        << "scheme " << scheme;
  }
}

// -- Vectorized wire path ----------------------------------------------------

TEST_P(QipcRoundTrip, BulkEncodeMatchesElementwiseBaseline) {
  // The memcpy/tight-loop encoder must be byte-identical to the pinned
  // element-wise baseline for large vectors of every typed shape, nulls
  // included.
  size_t n = 10000 + rng_.Below(5000);
  std::vector<QValue> cases;
  for (QType t : {QType::kLong, QType::kTimestamp, QType::kTimespan,
                  QType::kShort, QType::kInt, QType::kDate, QType::kTime,
                  QType::kBool, QType::kByte}) {
    // bool/byte have no wire null; everything else gets nulls sprinkled in.
    std::vector<int64_t> v(n);
    for (auto& x : v) {
      if (t == QType::kBool) {
        x = rng_.Below(2);
      } else if (t == QType::kByte) {
        x = static_cast<int64_t>(rng_.Below(256)) - 128;  // decodes signed
      } else if (rng_.Below(8) == 0) {
        x = kNullLong;
      } else if (t == QType::kShort) {
        x = static_cast<int64_t>(rng_.Below(60000)) - 30000;
      } else {
        x = static_cast<int64_t>(rng_.Below(1u << 30)) - (1 << 29);
      }
    }
    cases.push_back(QValue::IntList(t, std::move(v)));
  }
  for (QType t : {QType::kFloat, QType::kReal}) {
    std::vector<double> v(n);
    for (auto& x : v) {
      x = rng_.NextDouble() * 1e9 - 5e8;
      // Reals travel as float32; pre-round so the round trip matches.
      if (t == QType::kReal) x = static_cast<float>(x);
    }
    cases.push_back(QValue::FloatList(t, std::move(v)));
  }
  {
    std::vector<std::string> syms(n);
    for (auto& s : syms)
      s = std::string(1 + rng_.Below(7), 'a' + rng_.Below(26));
    cases.push_back(QValue::Syms(std::move(syms)));
    std::string chars(n, ' ');
    for (auto& c : chars) c = static_cast<char>(rng_.Below(256));
    cases.push_back(QValue::Chars(std::move(chars)));
  }
  // A wide table mixing all of the above exercises the recursive paths.
  {
    std::vector<std::string> names;
    std::vector<QValue> cols;
    for (size_t i = 0; i < cases.size(); ++i) {
      names.push_back(std::string(1, static_cast<char>('a' + i)));
      cols.push_back(cases[i]);
    }
    cases.push_back(QValue::MakeTableUnchecked(names, cols));
  }
  for (const QValue& v : cases) {
    auto bulk = EncodeMessage(v, MsgType::kResponse);
    auto baseline = EncodeMessageElementwise(v, MsgType::kResponse);
    ASSERT_TRUE(bulk.ok()) << bulk.status().ToString();
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    ASSERT_EQ(*bulk, *baseline) << "type " << QTypeName(v.type());
    // And the bulk decode paths must invert them exactly.
    auto decoded = DecodeMessage(*bulk);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(QValue::Match(v, decoded->value))
        << "type " << QTypeName(v.type());
  }
}

TEST_P(QipcRoundTrip, EncodedObjectSizeIsExact) {
  // The size pre-pass must predict the payload size exactly for every
  // wire-encodable shape (it sizes the single allocation and the header).
  std::vector<QValue> cases;
  for (int i = 0; i < 20; ++i) cases.push_back(RandomAtom());
  for (int i = 0; i < 20; ++i) cases.push_back(RandomList(2));
  for (int i = 0; i < 5; ++i) cases.push_back(RandomTable());
  cases.push_back(QValue());  // generic null
  for (const QValue& v : cases) {
    auto size = EncodedObjectSize(v);
    auto bytes = EncodeMessage(v, MsgType::kResponse);
    ASSERT_TRUE(size.ok()) << size.status().ToString();
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    EXPECT_EQ(*size, bytes->size() - 8) << v.ToString();
  }
}

TEST_P(QipcRoundTrip, EncodeMessageIntoReusesArena) {
  // A reused per-connection arena must produce the same bytes as a fresh
  // encode, message after message.
  ByteWriter arena;
  for (int i = 0; i < 5; ++i) {
    QValue v = RandomTable();
    auto fresh = EncodeMessage(v, MsgType::kResponse);
    ASSERT_TRUE(fresh.ok());
    ASSERT_TRUE(EncodeMessageInto(v, MsgType::kResponse, &arena).ok());
    EXPECT_EQ(arena.data(), *fresh);
  }
}

TEST_P(QipcRoundTrip, ScatterEncodeSpellsSameBytes) {
  // The gather-write slices, concatenated, must spell exactly the
  // EncodeMessage bytes, and large typed columns must be borrowed from
  // the value rather than copied into the arena.
  size_t rows = 20000;
  std::vector<int64_t> a(rows);
  std::vector<double> b(rows);
  for (size_t i = 0; i < rows; ++i) {
    a[i] = static_cast<int64_t>(rng_.Below(1000));
    b[i] = rng_.NextDouble();
  }
  QValue table = QValue::MakeTableUnchecked(
      {"a", "b"},
      {QValue::IntList(QType::kLong, std::move(a)),
       QValue::FloatList(QType::kFloat, std::move(b))});

  auto contiguous = EncodeMessage(table, MsgType::kResponse);
  ASSERT_TRUE(contiguous.ok());
  ByteWriter arena;
  std::vector<IoSlice> slices;
  ASSERT_TRUE(EncodeMessageScatter(table, MsgType::kResponse, &arena,
                                   &slices)
                  .ok());
  std::vector<uint8_t> gathered;
  for (const IoSlice& s : slices) {
    const uint8_t* p = static_cast<const uint8_t*>(s.data);
    gathered.insert(gathered.end(), p, p + s.len);
  }
  EXPECT_EQ(gathered, *contiguous);

  if constexpr (kHostIsLittleEndian) {
    // Column payloads are the value's own buffers: zero copies.
    const QValue& col_a = table.Table().columns[0];
    const QValue& col_b = table.Table().columns[1];
    bool borrowed_a = false;
    bool borrowed_b = false;
    for (const IoSlice& s : slices) {
      if (s.data == col_a.Ints().data()) borrowed_a = true;
      if (s.data == col_b.Floats().data()) borrowed_b = true;
    }
    EXPECT_TRUE(borrowed_a);
    EXPECT_TRUE(borrowed_b);
  }

  // Small values produce slices too (all-arena) and still concatenate to
  // the contiguous encoding.
  for (int i = 0; i < 10; ++i) {
    QValue v = RandomList(2);
    auto flat = EncodeMessage(v, MsgType::kResponse);
    ASSERT_TRUE(flat.ok());
    ASSERT_TRUE(
        EncodeMessageScatter(v, MsgType::kResponse, &arena, &slices).ok());
    std::vector<uint8_t> got;
    for (const IoSlice& s : slices) {
      const uint8_t* p = static_cast<const uint8_t*>(s.data);
      got.insert(got.end(), p, p + s.len);
    }
    EXPECT_EQ(got, *flat);
  }
}

TEST_P(QipcRoundTrip, CompressionZeroRunMatchRegression) {
  // Regression: a long column of small repeated values emits zero-length
  // match tokens; the decompressor must reset its hash cursor after those
  // too, or its table diverges from the compressor's and later
  // back-references land on the wrong position.
  std::vector<int64_t> v(100000);
  for (auto& x : v) x = static_cast<int64_t>(rng_.Below(4));
  QValue table = QValue::MakeTableUnchecked(
      {"v"}, {QValue::IntList(QType::kLong, std::move(v))});
  auto plain = EncodeMessage(table, MsgType::kResponse);
  ASSERT_TRUE(plain.ok());
  auto packed = CompressMessage(*plain);
  ASSERT_TRUE(IsCompressedMessage(packed));
  auto restored = DecompressMessage(packed);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(*restored, *plain);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QipcRoundTrip,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

}  // namespace
}  // namespace qipc
}  // namespace hyperq
