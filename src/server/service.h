// Concurrency core of the FD-monitoring server: N sessions issuing SQL
// against one shared catalog + named monitors, socket-free so tests and
// the bench driver can exercise the exact production locking without a
// network in the loop (the TCP layer in server.h is a thin shell).
//
// Locking model (MVCC-lite over tombstone-mutable relations):
//
//   * catalog lock (shared_mutex) — guards the table map and the catalog
//     itself. DDL (CREATE TABLE, DECLARE FD) and CHECKPOINT take it
//     exclusively; everything else takes it shared.
//   * per-table lock (shared_mutex) — writers (INSERT/DELETE/UPDATE + the
//     monitor poll that follows each, SUBSCRIBE's subscriber-list edit)
//     take it exclusively; readers (SELECT) take it shared. The storage
//     stays append-shaped under mutation (DELETE only tombstones; UPDATE
//     is delete + append), so a reader under the shared lock sees a
//     consistent state: rows [0, version()) have immutable codes and the
//     tombstone bitmap only changes under the exclusive lock.
//
//   Lock order is always catalog before table; no operation holds two
//   table locks at once (CHECKPOINT quiesces via the exclusive catalog
//   lock alone, which every data path acquires shared).
//
// Monitors run in external mode (fd::SchemaMonitor's shared-relation
// constructors), at most two per table: an exact one and a sampled one
// (DECLARE FD ... SAMPLE k). Each write path mutates through the SQL engine
// and then polls both under the same exclusive table lock, so the monitors
// always observe a quiescent relation. Drift events (violated AND recovered)
// are pushed to subscribed sessions from inside that critical section —
// ordering is therefore exactly commit order per table.
//
// Serial-replay identity: every committed write statement (INSERT,
// DELETE, UPDATE, CREATE TABLE first, DECLARE FD) is journaled per table
// in commit order (the canonical ToString of the parsed statement).
// Replaying a table's journal through a fresh Service reproduces the
// relation, group ids, monitor counters, and drift log bit-for-bit —
// group ids are append-stable first-appearance ids (tombstones never
// reassign them), DELETE/UPDATE row selection is deterministic in
// physical row order, and compaction fires from a deterministic policy
// (MaybeCompact) evaluated at statement boundaries, so everything depends
// only on per-table statement order, which is what the journal records.
// The concurrency suite asserts this equivalence.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "fd/schema_monitor.h"
#include "sql/database.h"
#include "storage/snapshot.h"

namespace fdevolve::server {

class Service {
 public:
  struct Options {
    /// Where CHECKPOINT (and the TCP layer's shutdown path) persists the
    /// server-state snapshot. Empty = CHECKPOINT replies ERR.
    std::string checkpoint_path;
    /// Check interval for monitors whose DECLARE FD had no EVERY clause.
    size_t default_check_interval = 1;
    /// Record per-table commit-order journals (the replay-identity
    /// harness). Off for throughput benchmarking.
    bool record_journal = true;
  };

  using SessionId = uint64_t;

  /// Sink for asynchronous DRIFT pushes. Called with one complete line
  /// (no trailing newline), possibly from another session's thread; the
  /// Service serializes calls per session. Return false to report the
  /// sink dead (the session stops receiving pushes).
  using PushFn = std::function<bool(const std::string& line)>;

  Service();  ///< default options (no checkpoint path, journal on)
  explicit Service(Options opts);

  /// Loads the server-state snapshot at `opts.checkpoint_path` and
  /// rebuilds tables + monitors from it. Call before any session opens.
  /// Returns false + error if the file is missing or corrupt.
  bool Resume(std::string* error);

  /// Registers a session. `push` may be null (a session that never
  /// subscribes — e.g. the replay harness).
  SessionId OpenSession(PushFn push);

  /// Unregisters a session and removes its subscriptions. Safe to call
  /// while other sessions are mid-statement.
  void CloseSession(SessionId id);

  struct Result {
    std::string reply;      ///< one protocol line (OK/ERR, no newline)
    bool shutdown = false;  ///< statement was SHUTDOWN; caller stops serving
  };

  /// Parses and executes one statement line on behalf of a session.
  /// Thread-safe: any number of sessions may call concurrently. Never
  /// throws — parse/execution failures come back as ERR replies.
  Result ExecuteLine(SessionId id, const std::string& line);

  /// Persists the server-state snapshot to `opts.checkpoint_path`.
  /// Quiesces all sessions for the duration (exclusive catalog lock).
  bool SaveCheckpoint(std::string* error);

  /// Serialized server state (the exact bytes SaveCheckpoint writes) —
  /// the concurrency suite compares these across concurrent vs. serial
  /// runs for bit-identity. Quiesces like SaveCheckpoint.
  std::string SerializeState() const;

  /// Commit-order journal of a table ("" if unknown table). Entry 0 is
  /// the CREATE TABLE statement; resumed tables start with an empty
  /// journal (their state came from the snapshot, not from statements).
  std::vector<std::string> Journal(const std::string& table) const;

  std::vector<std::string> TableNames() const;

  /// Drift log of a table's exact monitor (empty if no monitor).
  std::vector<fd::DriftEvent> DriftLog(const std::string& table) const;

  /// Drift log of a table's *sampled* monitor (empty if none). Sampled
  /// events carry approx=true (estimated measures, witnessed violation)
  /// unless the reservoir covered every live row at the transition. The
  /// frozen benchmark (perfbench/) names this accessor too.
  std::vector<fd::DriftEvent> SampledDriftLog(const std::string& table) const;

 private:
  struct SessionRec {
    PushFn push;
    std::mutex push_mutex;  ///< serializes pushes to one session
    bool dead = false;      ///< push sink reported failure (under mutex)

    void Push(const std::string& line);
  };

  struct TableEntry {
    relation::Relation* rel = nullptr;  ///< stable pointer into db_
    mutable std::shared_mutex mutex;
    /// External-mode monitors; either may be null. `sampled` serves
    /// DECLARE FD ... SAMPLE k [SEED s] — one reservoir per table, so every
    /// sampled DECLARE must agree on interval, capacity, and seed.
    std::unique_ptr<fd::SchemaMonitor> monitor;
    std::unique_ptr<fd::SchemaMonitor> sampled;
    std::vector<std::shared_ptr<SessionRec>> subscribers;
    std::vector<std::string> journal;
  };

  /// Looks up a table entry; throws std::invalid_argument if absent.
  /// Caller must hold the catalog lock (shared suffices).
  TableEntry* FindEntry(const std::string& table) const;

  /// Deterministic compaction policy, run after every committed DELETE /
  /// UPDATE under the table's exclusive lock: compacts when the relation
  /// has at least kCompactMinRows physical rows and at least half of them
  /// are dead. A pure function of physical state, so journal replay
  /// compacts at identical statement boundaries (replay identity).
  void MaybeCompact(TableEntry* entry);

  /// Physical-row floor below which MaybeCompact never fires (avoids
  /// thrashing tiny tables where a rebuild outcosts the scan it saves).
  static constexpr size_t kCompactMinRows = 64;

  /// Polls the table's monitors after a committed mutation, under the
  /// same exclusive table lock (see class comment).
  static void PollMonitors(TableEntry* entry);

  /// Wires one of the entry's monitors' drift callback to push to
  /// subscribers. Runs under the table's exclusive lock (Poll is only
  /// called there).
  static void InstallDriftCallback(TableEntry* entry,
                                   fd::SchemaMonitor* monitor,
                                   const std::string& table);

  /// Builds entries (and monitors, when `monitors` has state for them)
  /// for every table in db_. Caller holds the exclusive catalog lock.
  void BuildEntries(const std::vector<storage::ServerMonitorState>& monitors);

  /// Every monitor's state, in table order. Caller holds the exclusive
  /// catalog lock.
  std::vector<storage::ServerMonitorState> MonitorStates() const;

  /// Drift log of a table's exact or sampled monitor, read under the
  /// shared locks; empty when the table or monitor is absent.
  std::vector<fd::DriftEvent> DriftLogOf(const std::string& table,
                                         bool sampled) const;

  std::shared_ptr<SessionRec> FindSession(SessionId id);

  Options opts_;
  mutable std::shared_mutex catalog_mutex_;
  sql::Database db_;
  /// std::map: stable iteration in name order gives CHECKPOINT a
  /// deterministic table sequence in the snapshot.
  std::map<std::string, std::unique_ptr<TableEntry>> tables_;

  std::mutex sessions_mutex_;
  std::unordered_map<SessionId, std::shared_ptr<SessionRec>> sessions_;
  SessionId next_session_ = 1;  ///< under sessions_mutex_
};

}  // namespace fdevolve::server
