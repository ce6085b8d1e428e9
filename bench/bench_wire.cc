// The zero-copy wire path: QIPC encode throughput for a large typed table
// through the vectorized encoder (size pre-pass + bulk memcpy + arena
// reuse) against the pinned element-wise baseline, scatter-gather socket
// egress against contiguous writes, and kx single-stream compression. The
// acceptance bar is a >=4x encode speedup on the typed table at 1 thread;
// `--json=FILE` writes the evidence as an artifact (scripts/bench.sh
// commits it as BENCH_wire.json).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/strings.h"
#include "net/tcp.h"
#include "protocol/qipc/compress.h"
#include "protocol/qipc/qipc.h"
#include "testing/market_data.h"

namespace hyperq {
namespace bench {
namespace {

using qipc::MsgType;

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// 1M-row (or `rows`) typed table: longs, floats and timestamps, the
/// column shapes the bulk encoder turns into straight memcpys.
QValue TypedTable(size_t rows) {
  testing::Rng rng(41);
  std::vector<int64_t> ids(rows);
  std::vector<double> prices(rows);
  std::vector<int64_t> times(rows);
  for (size_t i = 0; i < rows; ++i) {
    ids[i] = static_cast<int64_t>(i);
    prices[i] = 100.0 + 0.01 * static_cast<double>(rng.Below(10000));
    times[i] = 1700000000000000000LL + static_cast<int64_t>(i) * 1000;
  }
  return QValue::MakeTableUnchecked(
      {"id", "price", "ts"},
      {QValue::IntList(QType::kLong, std::move(ids)),
       QValue::FloatList(QType::kFloat, std::move(prices)),
       QValue::IntList(QType::kTimestamp, std::move(times))});
}

/// Wide string table: symbol and char columns dominate, so the encoder's
/// win comes from the size pre-pass and arena reuse, not memcpy columns.
QValue StringTable(size_t rows) {
  testing::Rng rng(43);
  std::vector<std::string> syms(rows);
  std::vector<std::string> venues(rows);
  std::string flags(rows, ' ');
  for (size_t i = 0; i < rows; ++i) {
    syms[i] = StrCat("SYM", rng.Below(500));
    venues[i] = StrCat("venue-", rng.Below(12), "-", rng.Below(97));
    flags[i] = static_cast<char>('A' + rng.Below(26));
  }
  return QValue::MakeTableUnchecked(
      {"sym", "venue", "flag"},
      {QValue::Syms(std::move(syms)), QValue::Syms(std::move(venues)),
       QValue::Chars(std::move(flags))});
}

struct EncodeNumbers {
  double bulk_us = 0;
  double elementwise_us = 0;
  size_t bytes = 0;
  double Speedup() const { return elementwise_us / bulk_us; }
  double BulkMBps() const { return bytes / bulk_us; }
};

/// Best-of-N encode latency, bulk (arena-reusing) vs pinned element-wise.
/// Each strategy runs in its own loop: interleaving them lets the second
/// encoder run over caches the first just warmed, which flatters whichever
/// one goes second.
EncodeNumbers MeasureEncode(const QValue& v, int iters) {
  EncodeNumbers out;
  out.bulk_us = 1e18;
  out.elementwise_us = 1e18;
  for (int it = 0; it < iters; ++it) {
    double start = NowUs();
    auto base = qipc::EncodeMessageElementwise(v, MsgType::kResponse);
    out.elementwise_us = std::min(out.elementwise_us, NowUs() - start);
    if (!base.ok()) {
      std::fprintf(stderr, "element-wise encode failed\n");
      std::exit(1);
    }
    out.bytes = base->size();
  }
  ByteWriter arena;
  for (int it = 0; it < iters; ++it) {
    double start = NowUs();
    Status s = qipc::EncodeMessageInto(v, MsgType::kResponse, &arena);
    out.bulk_us = std::min(out.bulk_us, NowUs() - start);
    if (!s.ok()) {
      std::fprintf(stderr, "encode failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
    if (arena.data().size() != out.bytes) {
      std::fprintf(stderr, "bulk encode diverged\n");
      std::exit(1);
    }
  }
  return out;
}

struct WriteNumbers {
  double scatter_us = 0;
  double contiguous_us = 0;
  size_t bytes = 0;
};

/// Best-of-N encode+write latency over a loopback socket: scatter encode
/// plus WriteAllV against the pinned before-path (element-wise encode into
/// a fresh buffer plus contiguous WriteAll).
WriteNumbers MeasureEncodeAndWrite(const QValue& v, int iters) {
  WriteNumbers out;
  auto listener = TcpListener::Listen(0);
  if (!listener.ok()) std::exit(1);
  std::thread drain([&]() {
    auto conn = listener->Accept();
    if (!conn.ok()) return;
    for (;;) {
      auto chunk = conn->ReadSome(1 << 20);
      if (!chunk.ok() || chunk->empty()) return;
    }
  });
  auto conn = TcpConnection::Connect("127.0.0.1", listener->port());
  if (!conn.ok()) std::exit(1);

  out.scatter_us = 1e18;
  out.contiguous_us = 1e18;
  for (int it = 0; it < iters; ++it) {
    double start = NowUs();
    auto flat = qipc::EncodeMessageElementwise(v, MsgType::kResponse);
    Status s;
    if (flat.ok()) s = conn->WriteAll(*flat);
    out.contiguous_us = std::min(out.contiguous_us, NowUs() - start);
    if (!flat.ok() || !s.ok()) {
      std::fprintf(stderr, "contiguous write failed\n");
      std::exit(1);
    }
    out.bytes = flat->size();
  }
  ByteWriter arena;
  std::vector<IoSlice> slices;
  for (int it = 0; it < iters; ++it) {
    double start = NowUs();
    Status s =
        qipc::EncodeMessageScatter(v, MsgType::kResponse, &arena, &slices);
    if (s.ok()) s = conn->WriteAllV(slices);
    out.scatter_us = std::min(out.scatter_us, NowUs() - start);
    if (!s.ok()) {
      std::fprintf(stderr, "scatter write failed: %s\n",
                   s.ToString().c_str());
      std::exit(1);
    }
  }
  conn->Close();
  drain.join();
  return out;
}

struct CompressNumbers {
  double single_us = 0;
  size_t plain_bytes = 0;
  size_t single_bytes = 0;
};

CompressNumbers MeasureCompression(const QValue& v, int iters) {
  CompressNumbers out;
  auto plain = qipc::EncodeMessage(v, MsgType::kResponse);
  if (!plain.ok()) std::exit(1);
  out.plain_bytes = plain->size();
  out.single_us = 1e18;
  for (int it = 0; it < iters; ++it) {
    std::vector<uint8_t> copy = *plain;
    double start = NowUs();
    auto single = qipc::CompressMessage(std::move(copy));
    out.single_us = std::min(out.single_us, NowUs() - start);
    out.single_bytes = single.size();
  }
  return out;
}

int Run(const std::string& json_path, bool smoke) {
  const size_t typed_rows = smoke ? 100000 : 1000000;
  const size_t string_rows = smoke ? 50000 : 300000;
  const int iters = smoke ? 3 : 7;

  QValue typed = TypedTable(typed_rows);
  QValue strings = StringTable(string_rows);

  std::printf("Wire path (typed %zu rows, strings %zu rows, best of %d)\n\n",
              typed_rows, string_rows, iters);

  EncodeNumbers typed_enc = MeasureEncode(typed, iters);
  std::printf(
      "typed encode:   bulk %10.1fus  elementwise %10.1fus  "
      "speedup %5.1fx  (%zu bytes, %.0f MB/s)\n",
      typed_enc.bulk_us, typed_enc.elementwise_us, typed_enc.Speedup(),
      typed_enc.bytes, typed_enc.BulkMBps());

  EncodeNumbers string_enc = MeasureEncode(strings, iters);
  std::printf(
      "string encode:  bulk %10.1fus  elementwise %10.1fus  "
      "speedup %5.1fx  (%zu bytes, %.0f MB/s)\n",
      string_enc.bulk_us, string_enc.elementwise_us, string_enc.Speedup(),
      string_enc.bytes, string_enc.BulkMBps());

  WriteNumbers typed_write = MeasureEncodeAndWrite(typed, iters);
  std::printf(
      "typed e2e:      scatter %8.1fus  contiguous %9.1fus  "
      "(%zu bytes over loopback)\n",
      typed_write.scatter_us, typed_write.contiguous_us, typed_write.bytes);

  WriteNumbers string_write = MeasureEncodeAndWrite(strings, iters);
  std::printf(
      "string e2e:     scatter %8.1fus  contiguous %9.1fus  "
      "(%zu bytes over loopback)\n",
      string_write.scatter_us, string_write.contiguous_us,
      string_write.bytes);

  CompressNumbers comp = MeasureCompression(typed, iters);
  std::printf(
      "compress:       single %9.1fus  (plain %zu -> %zu bytes)\n",
      comp.single_us, comp.plain_bytes, comp.single_bytes);

  bool pass = typed_enc.Speedup() >= 4.0;
  std::printf("\nacceptance bar: >=4x typed encode bulk vs elementwise — %s\n",
              pass ? "PASS" : "FAIL");

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"name\": \"wire_path\",\n");
    std::fprintf(f, "  \"num_cpus\": %u,\n  \"smoke\": %s,\n",
                 std::thread::hardware_concurrency(),
                 smoke ? "true" : "false");
    std::fprintf(f, "  \"typed_rows\": %zu,\n  \"string_rows\": %zu,\n",
                 typed_rows, string_rows);
    std::fprintf(f,
                 "  \"typed_encode\": {\"bulk_us\": %.1f, "
                 "\"elementwise_us\": %.1f, \"speedup\": %.2f, "
                 "\"bytes\": %zu, \"bulk_mb_per_s\": %.0f},\n",
                 typed_enc.bulk_us, typed_enc.elementwise_us,
                 typed_enc.Speedup(), typed_enc.bytes, typed_enc.BulkMBps());
    std::fprintf(f,
                 "  \"string_encode\": {\"bulk_us\": %.1f, "
                 "\"elementwise_us\": %.1f, \"speedup\": %.2f, "
                 "\"bytes\": %zu},\n",
                 string_enc.bulk_us, string_enc.elementwise_us,
                 string_enc.Speedup(), string_enc.bytes);
    std::fprintf(f,
                 "  \"typed_encode_write\": {\"scatter_us\": %.1f, "
                 "\"contiguous_us\": %.1f, \"bytes\": %zu},\n",
                 typed_write.scatter_us, typed_write.contiguous_us,
                 typed_write.bytes);
    std::fprintf(f,
                 "  \"string_encode_write\": {\"scatter_us\": %.1f, "
                 "\"contiguous_us\": %.1f, \"bytes\": %zu},\n",
                 string_write.scatter_us, string_write.contiguous_us,
                 string_write.bytes);
    std::fprintf(f,
                 "  \"compression\": {\"single_us\": %.1f, "
                 "\"plain_bytes\": %zu, \"single_bytes\": %zu},\n",
                 comp.single_us, comp.plain_bytes, comp.single_bytes);
    std::fprintf(f, "  \"encode_speedup\": %.2f,\n  \"acceptance_4x\": %s\n}\n",
                 typed_enc.Speedup(), pass ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace hyperq

int main(int argc, char** argv) {
  std::string json_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--json=", 0) == 0) {
      json_path = a.substr(7);
    } else if (a == "--smoke") {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--json=FILE] [--smoke]\n", argv[0]);
      return 2;
    }
  }
  return hyperq::bench::Run(json_path, smoke);
}
