// FDEV — versioned binary columnar snapshots.
//
// CSV persistence re-parses and re-dictionary-encodes the whole stream on
// every restart; snapshots instead serialize the *encoded* layer directly
// (per-column dictionary + dense codes + row watermark, no per-cell Value
// boxing), in the spirit of DuckDB's persisted column segments and
// Hyrise's binary table export. Five payload kinds share one envelope:
//
//   * Relation          — one dictionary-encoded relation;
//   * Database catalog  — named relations + declared FDs;
//   * Monitor checkpoint — an fd::MonitorCheckpoint, a SchemaMonitor's
//     complete resumable state (relation, registered FDs, per-FD
//     measures, drift log, interval position), so a monitoring process
//     can stop and resume mid-stream without replaying it. One type
//     serves both measure sources: a checkpoint without a reservoir is
//     written as kind 3, one with a reservoir (slots and raw generator
//     state, so a resumed sampled monitor replays the identical remaining
//     estimate sequence) as kind 5 — the kind-3 payload followed by the
//     reservoir. The reader accepts either kind;
//   * Server state      — a server::Service's durable state: the whole
//     catalog plus one relation-free fd::MonitorState per monitor (the
//     relations live in the catalog section; embedding a copy per monitor
//     would double the file). Exact states and sampled states are written
//     to separate sections, each at most one state per table.
//
// File layout (all integers little-endian, see util/binary_io.h):
//
//   offset 0: magic "FDEV"            (4 bytes)
//             format version u32     (currently 4; v1–v3 files still load)
//             payload kind u32       (1 = relation, 2 = database,
//                                     3 = monitor checkpoint,
//                                     4 = server state,
//                                     5 = monitor checkpoint with a
//                                         reservoir)
//             payload bytes
//   trailer:  FNV-1a u64 over everything before the trailer
//
// Version history:
//
//   v1 — append-only relations; drift events carry no kind.
//   v2 — each relation payload ends with its tombstone deletion log (a
//        u32 array of dead physical row ids in deletion order; empty for
//        all-live relations), and each drift-log entry carries a kind
//        byte (0 = violated, 1 = recovered). A v1 file therefore loads
//        as an all-live relation whose drift events default to violated
//        — exactly what v1 writers could express.
//   v3 — each drift-log entry additionally carries an approx byte and
//        four interval doubles (confidence lo/hi, goodness lo/hi;
//        all-default for exact events), the server-state
//        payload ends with a sampled-monitor section (count + per-entry
//        table name, monitor state, reservoir state; empty when no
//        sampled monitors exist), and kind 5 serializes a standalone
//        checkpoint with a reservoir. v1/v2 files load with exact-event
//        defaults and an empty sampled section — exactly what their
//        writers could express.
//   v4 — drift-log entries drop the four interval doubles and keep the
//        kind and approx bytes: the sampled monitor reports point
//        estimates and witnessed violations only. A v3 file loads with
//        its approx byte validated and its doubles discarded.
//
// Integrity policy: loads verify size, magic, version, kind, and checksum
// before parsing, then parse with bounds-checked reads and validate every
// structural invariant (code ranges, null counts, dictionary uniqueness,
// deletion-log bounds, schema/FD consistency, one monitor state per table
// and section, measure agreement). A truncated or bit-flipped file fails
// with a clean error — never a crash, never a silently wrong object.
// Version policy: the u32 after the magic is bumped on any layout change;
// readers accept every version they know how to parse (currently 1
// through 4) and reject the rest (no silent best-effort parsing of future
// formats). Writers always emit the current version.
//
// Bit-identity contract: a loaded snapshot reproduces the encoded state
// exactly — same dictionary order, same codes, same watermark, same
// tombstone bitmap (the deletion log is replayed through DeleteRow) — so
// every downstream computation (group ids, distinct counts, measure
// doubles, drift flags) is bit-identical to the evaluator state that
// wrote it. The differential fuzz suite and bench_snapshot gate this.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fd/schema_monitor.h"
#include "relation/relation.h"
#include "sql/database.h"

namespace fdevolve::storage {

/// Format version written by this build. Readers accept every version in
/// [kMinFormatVersion, kFormatVersion] (see the version history above).
inline constexpr uint32_t kFormatVersion = 4;
inline constexpr uint32_t kMinFormatVersion = 1;

/// Result of loading a relation snapshot (mirrors relation::CsvResult).
struct RelationSnapshotResult {
  std::optional<relation::Relation> relation;
  std::string error;

  /// True when the input is not an FDEV snapshot at all (missing magic /
  /// shorter than the envelope) — as opposed to a corrupt or mismatched
  /// snapshot. Lets callers that accept several formats fall back to
  /// another parser without matching on error text.
  bool not_a_snapshot = false;

  bool ok() const { return relation.has_value(); }
};

/// Result of loading a monitor checkpoint (kind 3, or kind 5 — then
/// `checkpoint->reservoir` is set).
struct CheckpointResult {
  std::optional<fd::MonitorCheckpoint> checkpoint;
  std::string error;

  bool ok() const { return checkpoint.has_value(); }
};

/// One monitor's relation-free state, keyed by table name into the catalog
/// persisted alongside it (see the server-state kind). A state with a
/// reservoir belongs to the table's sampled monitor.
struct ServerMonitorState {
  std::string table;
  fd::MonitorState state;
};

/// Kept because the frozen benchmark (perfbench/) names it.
using ServerSampledMonitorState = ServerMonitorState;

// --- Buffer-level API (the file functions are thin wrappers; tests use
// --- these to corrupt bytes in memory).

/// Serializes to a complete snapshot byte string (envelope + checksum).
std::string SerializeRelation(const relation::Relation& rel);
std::string SerializeDatabase(const sql::Database& db);
/// Kind 5 when `ckpt.reservoir` is set, kind 3 otherwise.
std::string SerializeCheckpoint(const fd::MonitorCheckpoint& ckpt);

/// States without a reservoir go to the exact section, states with one to
/// the sampled section, each in the given order.
std::string SerializeServerState(
    const sql::Database& db, const std::vector<ServerMonitorState>& monitors);
/// Kept because the frozen benchmark (perfbench/) names this form: the
/// same as serializing `monitors` followed by `sampled`.
std::string SerializeServerState(
    const sql::Database& db, const std::vector<ServerMonitorState>& monitors,
    const std::vector<ServerMonitorState>& sampled);

/// Parses a complete snapshot byte string of the matching kind.
RelationSnapshotResult DeserializeRelation(std::string_view bytes);
bool DeserializeDatabase(std::string_view bytes, sql::Database* db,
                         std::string* error);
/// Accepts kind 3 and kind 5 (see CheckpointResult).
CheckpointResult DeserializeCheckpoint(std::string_view bytes);

/// Adds the snapshot's catalog into `db` (normally empty) and appends the
/// per-table monitor states to `monitors`: the exact section, then the
/// sampled section (whose states carry their reservoir, validated on
/// restore by ReservoirSampler). Structural validation: every monitor
/// state must reference a table present in the snapshot, at most one per
/// table and section, and its watermark must equal that table's tuple
/// count (the pairing guarantee SchemaMonitor's restore constructor
/// relies on). On failure `*db` may hold a partial load.
bool DeserializeServerState(std::string_view bytes, sql::Database* db,
                            std::vector<ServerMonitorState>* monitors,
                            std::string* error);
/// Kept because the frozen benchmark (perfbench/) names this form: the
/// sampled section goes to `sampled` instead, and a file with a sampled
/// section fails the load when `sampled` is null rather than silently
/// dropping monitors.
bool DeserializeServerState(std::string_view bytes, sql::Database* db,
                            std::vector<ServerMonitorState>* monitors,
                            std::string* error,
                            std::vector<ServerMonitorState>* sampled);

// --- File-level API. Writers flush before reporting success so
// --- flush-time I/O errors (e.g. disk full) are not swallowed.

bool SaveRelationSnapshot(const relation::Relation& rel,
                          const std::string& path, std::string* error);
RelationSnapshotResult LoadRelationSnapshot(const std::string& path);

bool SaveDatabaseSnapshot(const sql::Database& db, const std::string& path,
                          std::string* error);
/// Adds the snapshot's relations and FDs into `db` (normally empty;
/// duplicate table names fail). On failure `*db` may hold a partial load,
/// matching sql::LoadCatalog's semantics.
bool LoadDatabaseSnapshot(const std::string& path, sql::Database* db,
                          std::string* error);

/// Persists a checkpoint (drivers may annotate it first, e.g. the CLI
/// filling MonitorCheckpoint::stream_batch_hint).
bool SaveMonitorCheckpoint(const fd::MonitorCheckpoint& ckpt,
                           const std::string& path, std::string* error);
CheckpointResult LoadMonitorCheckpoint(const std::string& path);

bool SaveServerSnapshot(const sql::Database& db,
                        const std::vector<ServerMonitorState>& monitors,
                        const std::string& path, std::string* error);
bool LoadServerSnapshot(const std::string& path, sql::Database* db,
                        std::vector<ServerMonitorState>* monitors,
                        std::string* error);

}  // namespace fdevolve::storage
