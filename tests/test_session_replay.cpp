// SessionStore::replay is the one journal reader: a resumed session and
// `tunekit_cli report` both take their counters from Replay::metrics. These
// tests pin that those counters are exact across compaction, segment
// rotation, quarantine drops, observe() and a kill, that journal discovery
// walks the shard-*/ layout `serve --shards` writes, and that `report` trusts
// no record whose CRC does not match and renders every table from the replay.

#include "common/rng.hpp"
#include "service/session.hpp"
#include "service/session_store.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#define TUNEKIT_HAVE_POPEN 1
#endif

namespace tunekit::service {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const char* name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

search::SearchSpace two_dim_space() {
  search::SearchSpace s;
  s.add(search::ParamSpec::real("x", -5.0, 5.0, 0.0));
  s.add(search::ParamSpec::real("y", -5.0, 5.0, 0.0));
  return s;
}

/// 16 configurations: random suggestions collide often enough that crash
/// quarantine bans configs and drops their later suggestions.
search::SearchSpace small_discrete_space() {
  search::SearchSpace s;
  s.add(search::ParamSpec::ordinal("a", {1, 2, 3, 4}, 1));
  s.add(search::ParamSpec::ordinal("b", {1, 2, 3, 4}, 1));
  return s;
}

void expect_same_counters(const SessionMetrics& replayed, const SessionMetrics& live) {
  EXPECT_EQ(replayed.tells, live.tells);
  EXPECT_EQ(replayed.fails, live.fails);
  EXPECT_EQ(replayed.drops, live.drops);
  EXPECT_EQ(replayed.failure_outcomes, live.failure_outcomes);
  EXPECT_EQ(replayed.cost_seconds, live.cost_seconds);
  EXPECT_EQ(replayed.eval_duration_ms, live.eval_duration_ms);
}

TEST(SessionReplay, KilledSessionResumesWithExactCounters) {
  const auto space = two_dim_space();
  const std::string journal =
      fresh_dir("tunekit_replay_kill") + "/session.journal.jsonl";
  SessionOptions opt;
  opt.max_evals = 200;
  opt.backend = SessionBackend::Random;
  opt.seed = 5;  // compact_every stays at its default, 64
  {
    TuningSession session(space, opt, journal);
    for (int i = 0; i < 90; ++i) {
      const auto batch = session.ask(1);
      ASSERT_EQ(batch.size(), 1u);
      ASSERT_TRUE(session.tell(batch[0].id, 1.0 + i, /*cost_seconds=*/0.5));
    }
    // Destroyed without close() or flush_metrics(): the last metrics record
    // is the one compaction wrote at 64 tells.
  }
  const auto resumed = TuningSession::resume(space, opt, journal);
  const SessionMetrics m = resumed->metrics();
  EXPECT_EQ(m.tells, 90u);
  EXPECT_DOUBLE_EQ(m.cost_seconds, 45.0);
  EXPECT_EQ(resumed->completed(), 90u);
}

TEST(SessionReplay, ReplayedCountersMatchLiveAfterEveryStep) {
  const auto space = small_discrete_space();
  const robust::EvalOutcome outcomes[] = {
      robust::EvalOutcome::Crashed, robust::EvalOutcome::TimedOut,
      robust::EvalOutcome::InvalidConfig, robust::EvalOutcome::NonFinite};
  for (const std::size_t compact_every : {1u, 3u, 64u}) {
    for (const std::uint64_t seed : {1u, 2u}) {
      SCOPED_TRACE("compact_every=" + std::to_string(compact_every) +
                   " seed=" + std::to_string(seed));
      const std::string journal =
          fresh_dir("tunekit_replay_property") + "/p.journal.jsonl";
      SessionOptions opt;
      opt.max_evals = 60;
      opt.backend = SessionBackend::Random;
      opt.seed = seed;
      opt.compact_every = compact_every;
      opt.rotate_bytes = 512;  // a sealed segment every few records
      opt.quarantine_after = 2;
      opt.failure_penalty = 1e3;
      TuningSession session(space, opt, journal);

      Rng rng(seed * 7919);
      std::vector<std::uint64_t> pending;
      const auto take_pending = [&] {
        const auto i = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(pending.size()) - 1));
        const std::uint64_t id = pending[i];
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
        return id;
      };
      for (int step = 0; step < 150; ++step) {
        const double pick = rng.uniform();
        if (pending.empty() || pick < 0.3) {
          const auto k = static_cast<std::size_t>(rng.uniform_int(1, 3));
          for (const auto& c : session.ask(k)) pending.push_back(c.id);
        } else if (pick < 0.6) {
          ASSERT_TRUE(session.tell(take_pending(), rng.uniform(0.0, 10.0),
                                   rng.uniform(0.0, 2.0), 0.0, rng.uniform(0.0, 50.0),
                                   static_cast<int>(rng.uniform_int(0, 3))));
        } else if (pick < 0.85) {
          ASSERT_TRUE(session.tell_failure(
              take_pending(), outcomes[rng.uniform_int(0, 3)]));
        } else {
          const std::size_t before = session.metrics().tells;
          session.observe(space.sample_valid(rng), rng.uniform(0.0, 10.0),
                          rng.uniform(0.0, 2.0));
          EXPECT_EQ(session.metrics().tells, before + 1) << "observe is a tell";
        }
        const SessionMetrics live = session.metrics();
        const auto replayed = SessionStore::replay(journal, space);
        SCOPED_TRACE("step " + std::to_string(step));
        expect_same_counters(replayed.metrics, live);
        if (HasFailure()) return;
      }
      const SessionMetrics end = session.metrics();
      EXPECT_GT(end.drops, 0u) << "no drop was exercised";
      EXPECT_GT(end.fails, 0u) << "no failed attempt was exercised";
    }
  }
}

TEST(SessionStoreDiscovery, ListsActiveJournalsInShardSubdirectories) {
  const std::string dir = fresh_dir("tunekit_replay_discovery");
  const auto touch = [&](const std::string& rel) {
    const fs::path p = fs::path(dir) / rel;
    fs::create_directories(p.parent_path());
    std::ofstream(p) << "x\n";
  };
  touch("a.journal.jsonl");
  touch("a.journal.000001.jsonl");  // sealed segment: stitched by replay
  touch("a.journal.jsonl.snapshot.json");
  touch("telemetry.json");
  touch("shard-0/b.journal.jsonl");
  touch("shard-1/c.journal.jsonl");
  touch("shard-1/corrupt/c.journal.jsonl");  // quarantine copy
  touch("other/d.journal.jsonl");            // not a shard
  fs::create_directories(fs::path(dir) / "shard-2");

  const auto found = SessionStore::find_journals(dir);
  ASSERT_EQ(found.size(), 3u);
  EXPECT_EQ(found[0].id, "a");
  EXPECT_EQ(found[0].path, (fs::path(dir) / "a.journal.jsonl").string());
  EXPECT_EQ(found[1].id, "b");
  EXPECT_EQ(found[1].path, (fs::path(dir) / "shard-0" / "b.journal.jsonl").string());
  EXPECT_EQ(found[2].id, "c");
  EXPECT_EQ(found[2].path, (fs::path(dir) / "shard-1" / "c.journal.jsonl").string());

  const auto only_c = SessionStore::find_journals(dir, "c");
  ASSERT_EQ(only_c.size(), 1u);
  EXPECT_EQ(only_c[0].path, found[2].path);
  EXPECT_TRUE(SessionStore::find_journals(dir, "d").empty());
  fs::remove_all(dir);
}

#ifdef TUNEKIT_HAVE_POPEN
/// The cells of the `report` table row for search `name` (empty if absent).
std::vector<std::string> report_row(const std::string& report, const std::string& name) {
  std::istringstream in(report);
  for (std::string line; std::getline(in, line);) {
    std::vector<std::string> cells;
    std::istringstream row(line);
    for (std::string cell; std::getline(row, cell, '|');) {
      const auto b = cell.find_first_not_of(' ');
      const auto e = cell.find_last_not_of(' ');
      cells.push_back(b == std::string::npos ? "" : cell.substr(b, e - b + 1));
    }
    if (cells.size() > 3 && cells[1] == name) return {cells.begin() + 1, cells.end()};
  }
  return {};
}

TEST(SessionReplay, ReportSkipsCrcCorruptedTellInShardedLayout) {
  const auto space = two_dim_space();
  const std::string dir = fresh_dir("tunekit_replay_report_crc");
  const std::string journal = dir + "/shard-0/s.journal.jsonl";
  fs::create_directories(dir + "/shard-0");
  {
    SessionOptions opt;
    opt.max_evals = 50;
    opt.backend = SessionBackend::Random;
    opt.structure_online = true;  // journals the initial cut at creation
    TuningSession session(space, opt, journal);
    for (int i = 0; i < 6; ++i) {
      const auto batch = session.ask(1);
      ASSERT_EQ(batch.size(), 1u);
      ASSERT_TRUE(session.tell(batch[0].id, 1.0 + i, 0.5, 0.0, 10.0 * (i + 1), i % 2,
                               i % 2 == 0 ? "node-a" : "node-b"));
    }
    const auto batch = session.ask(1);
    ASSERT_EQ(batch.size(), 1u);
    ASSERT_TRUE(session.tell_failure(batch[0].id, robust::EvalOutcome::Crashed, "node-b"));
  }
  // Damage the CRC of the first tell. Its JSON payload still parses, so only
  // a reader that checks the CRC can tell the record is not trustworthy.
  {
    std::ifstream in(journal, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    const auto pos = bytes.find("\"e\":\"tell\"");
    ASSERT_NE(pos, std::string::npos);
    const auto line_start = bytes.rfind('\n', pos) + 1;
    bytes[line_start] = bytes[line_start] == '0' ? '1' : '0';
    std::ofstream out(journal, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const auto replayed = SessionStore::replay(journal, space);
  EXPECT_EQ(replayed.metrics.tells, 5u);
  EXPECT_EQ(replayed.salvage.lost_records, 1u);

  const std::string cmd =
      std::string(TUNEKIT_CLI_BIN) + " report --session " + dir + " 2>/dev/null";
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;) output.append(buf, n);
  const int status = ::pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << output;
  const auto row = report_row(output, "s");
  ASSERT_GE(row.size(), 6u) << "no row for the sharded journal:\n" << output;
  EXPECT_EQ(row[2], "5") << output;      // Tells
  EXPECT_EQ(row[3], "1") << output;      // Fails
  EXPECT_EQ(row[5], "2.500") << output;  // Cost s
  // The other tables render the same replay: slots from the completed
  // evaluations, nodes from the records, the partition trail from the
  // structure snapshot.
  EXPECT_NE(output.find("slot 0: 2\n  slot 1: 3\n"), std::string::npos) << output;
  EXPECT_EQ(report_row(output, "node-a"),
            (std::vector<std::string>{"node-a", "2", "0", "49.800"})) << output;
  EXPECT_EQ(report_row(output, "node-b"),
            (std::vector<std::string>{"node-b", "3", "1", "59.600"})) << output;
  EXPECT_NE(output.find("Partition history (s):\n  init"), std::string::npos) << output;
  fs::remove_all(dir);
}
#endif

}  // namespace
}  // namespace tunekit::service
