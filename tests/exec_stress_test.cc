#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/worker_pool.h"
#include "sqldb/database.h"
#include "sqldb/session.h"
#include "testing/fixtures.h"

namespace hyperq {
namespace {

using sqldb::QueryResult;

/// Concurrent-executor stress: many sessions execute morsel-parallel
/// queries against one shared catalog at once. Scans share the stored
/// column buffers zero-copy and every query fans morsels out to the one
/// shared worker pool, so this doubles as the TSAN battery's probe for
/// races between concurrent executors.
class ExecStressTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 100000;  // > 2 morsels: parallel paths on
  static constexpr size_t kSyms = 8;

  void SetUp() override {
    ASSERT_TRUE(testing::LoadStressTables(&db_, kRows, kSyms).ok());
  }

  /// One canonical text rendering of a result, for cross-run comparison.
  static std::string Render(const QueryResult& r) {
    std::string out;
    for (size_t row = 0; row < r.data.row_count; ++row) {
      for (size_t c = 0; c < r.data.columns.size(); ++c) {
        out += r.data.At(row, c).ToText();
        out += '|';
      }
      out += '\n';
    }
    return out;
  }

  sqldb::Database db_;
};

TEST_F(ExecStressTest, ConcurrentSessionsMatchSequentialResults) {
  const std::vector<std::string> queries = {
      "SELECT sym, px, qty FROM facts WHERE px > 50.0",
      "SELECT sym, SUM(px) AS s, COUNT(*) AS n FROM facts "
      "WHERE qty > 100 GROUP BY sym",
      "SELECT f.sym, f.px, d.w FROM facts f JOIN dims d ON f.sym = d.sym "
      "WHERE f.px > 95.0",
      "SELECT sym, AVG(px) AS a FROM facts GROUP BY sym "
      "ORDER BY a DESC LIMIT 3",
      "SELECT DISTINCT sym FROM facts WHERE qty < 50",
  };

  // Reference answers computed sequentially (pool resized to zero).
  WorkerPool::Shared().Resize(0);
  std::vector<std::string> expected;
  for (const auto& q : queries) {
    sqldb::Session s;
    auto r = db_.Execute(&s, q);
    ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    expected.push_back(Render(*r));
  }

  // Re-run from many sessions at once with the pool live. Results must be
  // byte-identical to the sequential run regardless of interleaving.
  WorkerPool::Shared().Resize(3);
  constexpr int kThreads = 8;
  constexpr int kIters = 6;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      sqldb::Session session;
      for (int it = 0; it < kIters; ++it) {
        size_t qi = static_cast<size_t>(t + it) % queries.size();
        auto r = db_.Execute(&session, queries[qi]);
        if (!r.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (Render(*r) != expected[qi]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  WorkerPool::Shared().Resize(0);

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ExecStressTest, ConcurrentSessionsReadOneCatalogView) {
  // Every session that reads a catalog view executes the view's one parse
  // tree, so evaluation must write nothing to it: the view's leaf WHERE,
  // an arithmetic projection and a CASE (evaluated row by row) all bind
  // their column references while other sessions do the same.
  sqldb::Session ddl;
  ASSERT_TRUE(db_.Execute(&ddl, "CREATE VIEW hot AS SELECT sym, px, qty "
                                "FROM facts WHERE qty > 100")
                  .ok());
  const std::vector<std::string> queries = {
      "SELECT px + qty AS s FROM hot",
      "SELECT CASE WHEN px > 50.0 THEN qty ELSE 0 END AS c, sym FROM hot",
  };
  WorkerPool::Shared().Resize(0);
  std::vector<std::string> expected;
  for (const auto& q : queries) {
    sqldb::Session s;
    auto r = db_.Execute(&s, q);
    ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    expected.push_back(Render(*r));
  }

  WorkerPool::Shared().Resize(2);
  constexpr int kThreads = 4;
  constexpr int kIters = 4;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      sqldb::Session session;
      for (int it = 0; it < kIters; ++it) {
        size_t qi = static_cast<size_t>(t + it) % queries.size();
        auto r = db_.Execute(&session, queries[qi]);
        if (!r.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (Render(*r) != expected[qi]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  WorkerPool::Shared().Resize(0);

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ExecStressTest, ParallelAndSequentialAggregatesBitIdentical) {
  // Float accumulation order is part of the determinism contract: the
  // morsel-parallel grouped path must add members in exactly the row order
  // the sequential path uses, so sums are bit-identical, not just close.
  const std::string q =
      "SELECT sym, SUM(px) AS s, AVG(px) AS a FROM facts GROUP BY sym";
  WorkerPool::Shared().Resize(0);
  sqldb::Session s1;
  auto seq = db_.Execute(&s1, q);
  ASSERT_TRUE(seq.ok());

  WorkerPool::Shared().Resize(4);
  sqldb::Session s2;
  auto par = db_.Execute(&s2, q);
  WorkerPool::Shared().Resize(0);
  ASSERT_TRUE(par.ok());

  EXPECT_EQ(Render(*seq), Render(*par));
}

}  // namespace
}  // namespace hyperq
