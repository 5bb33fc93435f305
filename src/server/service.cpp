#include "server/service.h"

#include <stdexcept>
#include <utility>

#include "server/protocol.h"
#include "sql/engine.h"
#include "sql/parser.h"

namespace fdevolve::server {

void Service::SessionRec::Push(const std::string& line) {
  std::lock_guard<std::mutex> lock(push_mutex);
  if (dead || !push) return;
  if (!push(line)) dead = true;
}

Service::Service() : Service(Options()) {}

Service::Service(Options opts) : opts_(std::move(opts)) {}

bool Service::Resume(std::string* error) {
  std::unique_lock cat(catalog_mutex_);
  if (opts_.checkpoint_path.empty()) {
    if (error) *error = "no checkpoint path configured";
    return false;
  }
  sql::Database db;
  std::vector<storage::ServerMonitorState> monitors;
  if (!storage::LoadServerSnapshot(opts_.checkpoint_path, &db, &monitors,
                                   error)) {
    return false;
  }
  db_ = std::move(db);
  tables_.clear();
  BuildEntries(monitors);
  return true;
}

void Service::BuildEntries(
    const std::vector<storage::ServerMonitorState>& monitors) {
  for (const auto& name : db_.TableNames()) {
    auto entry = std::make_unique<TableEntry>();
    entry->rel = &db_.GetMutable(name);
    tables_[name] = std::move(entry);
  }
  for (const auto& m : monitors) {
    TableEntry* entry = tables_.at(m.table).get();
    auto& monitor = m.state.reservoir ? entry->sampled : entry->monitor;
    monitor = std::make_unique<fd::SchemaMonitor>(entry->rel, m.state);
    InstallDriftCallback(entry, monitor.get(), m.table);
  }
}

Service::SessionId Service::OpenSession(PushFn push) {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  SessionId id = next_session_++;
  auto rec = std::make_shared<SessionRec>();
  rec->push = std::move(push);
  sessions_[id] = std::move(rec);
  return id;
}

void Service::CloseSession(SessionId id) {
  std::shared_ptr<SessionRec> rec;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    rec = std::move(it->second);
    sessions_.erase(it);
  }
  // Drop the sink first so in-flight pushes from other sessions become
  // no-ops, then prune the subscriber lists.
  {
    std::lock_guard<std::mutex> lock(rec->push_mutex);
    rec->dead = true;
    rec->push = nullptr;
  }
  std::shared_lock cat(catalog_mutex_);
  for (auto& [name, entry] : tables_) {
    std::unique_lock table(entry->mutex);
    auto& subs = entry->subscribers;
    for (size_t i = 0; i < subs.size();) {
      if (subs[i] == rec) {
        subs.erase(subs.begin() + static_cast<ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
}

std::shared_ptr<Service::SessionRec> Service::FindSession(SessionId id) {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

Service::TableEntry* Service::FindEntry(const std::string& table) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    throw std::invalid_argument("unknown table '" + table + "'");
  }
  return it->second.get();
}

void Service::MaybeCompact(TableEntry* entry) {
  // Deterministic policy: a pure function of the relation's physical
  // state, evaluated after every committed mutation statement. Replaying
  // a table's journal therefore compacts at exactly the same statement
  // boundaries as the live run did — which is what keeps serial replay
  // bit-identical to the concurrent state (group ids and dictionary
  // codes are reassigned at a compaction, so WHEN it happens matters).
  relation::Relation* rel = entry->rel;
  if (rel->tuple_count() >= kCompactMinRows &&
      rel->dead_count() * 2 >= rel->tuple_count()) {
    rel->Compact();
  }
}

void Service::PollMonitors(TableEntry* entry) {
  if (entry->monitor) entry->monitor->Poll();
  if (entry->sampled) entry->sampled->Poll();
}

void Service::InstallDriftCallback(TableEntry* entry,
                                   fd::SchemaMonitor* monitor,
                                   const std::string& table) {
  // Invoked by the monitor during Poll(), i.e. under the table's
  // exclusive lock — the subscriber list is stable for the duration and
  // pushes happen in commit order. FormatDrift adds approx=1 for
  // approximate (sampled) events.
  monitor->OnDrift([entry, monitor, table](const fd::DriftEvent& ev) {
    const fd::MonitoredFd& mfd = monitor->fds()[ev.fd_index];
    std::string line = FormatDrift(
        table, ev, mfd.fd.ToString(entry->rel->schema()));
    for (const auto& sub : entry->subscribers) sub->Push(line);
  });
}

Service::Result Service::ExecuteLine(SessionId id, const std::string& line) {
  Result res;
  sql::Statement stmt;
  try {
    stmt = sql::ParseStatement(line);
  } catch (const std::exception& e) {
    res.reply = FormatError(e.what());
    return res;
  }
  try {
    if (const auto* q = std::get_if<sql::CountQuery>(&stmt)) {
      std::shared_lock cat(catalog_mutex_);
      TableEntry* entry = FindEntry(q->table);
      std::shared_lock table(entry->mutex);
      // Disambiguate to the read-only overload (the variant overload
      // would also accept a CountQuery by conversion).
      res.reply =
          FormatOk(sql::Execute(*q, static_cast<const sql::Database&>(db_)));
      return res;
    }
    if (const auto* explain = std::get_if<sql::ExplainRepairStatement>(&stmt)) {
      // Read-only like a SELECT: a shared table lock keeps writers out
      // while the planner computes stats and measures over the live rows.
      std::shared_lock cat(catalog_mutex_);
      TableEntry* entry = FindEntry(explain->table);
      std::shared_lock table(entry->mutex);
      res.reply = FormatPlan(
          sql::Execute(*explain, static_cast<const sql::Database&>(db_)));
      return res;
    }
    if (const auto* ins = std::get_if<sql::InsertStatement>(&stmt)) {
      std::shared_lock cat(catalog_mutex_);
      TableEntry* entry = FindEntry(ins->table);
      std::unique_lock table(entry->mutex);
      uint64_t n = sql::Execute(*ins, db_);
      if (opts_.record_journal) entry->journal.push_back(ins->ToString());
      // Same critical section as the append: the monitors observe the
      // quiescent post-append relation and drift pushes follow commit
      // order (see class comment).
      PollMonitors(entry);
      res.reply = FormatOk(n);
      return res;
    }
    if (const auto* del = std::get_if<sql::DeleteStatement>(&stmt)) {
      std::shared_lock cat(catalog_mutex_);
      TableEntry* entry = FindEntry(del->table);
      std::unique_lock table(entry->mutex);
      uint64_t n = sql::Execute(*del, db_);
      if (opts_.record_journal) entry->journal.push_back(del->ToString());
      MaybeCompact(entry);
      PollMonitors(entry);
      res.reply = FormatOk(n);
      return res;
    }
    if (const auto* upd = std::get_if<sql::UpdateStatement>(&stmt)) {
      std::shared_lock cat(catalog_mutex_);
      TableEntry* entry = FindEntry(upd->table);
      std::unique_lock table(entry->mutex);
      uint64_t n = sql::Execute(*upd, db_);
      if (opts_.record_journal) entry->journal.push_back(upd->ToString());
      MaybeCompact(entry);
      PollMonitors(entry);
      res.reply = FormatOk(n);
      return res;
    }
    if (const auto* create = std::get_if<sql::CreateTableStatement>(&stmt)) {
      std::unique_lock cat(catalog_mutex_);
      sql::Execute(*create, db_);
      auto entry = std::make_unique<TableEntry>();
      entry->rel = &db_.GetMutable(create->table);
      if (opts_.record_journal) entry->journal.push_back(create->ToString());
      tables_[create->table] = std::move(entry);
      res.reply = FormatOk(0);
      return res;
    }
    if (const auto* declare = std::get_if<sql::DeclareFdStatement>(&stmt)) {
      std::unique_lock cat(catalog_mutex_);
      TableEntry* entry = FindEntry(declare->table);
      const relation::Schema& schema = entry->rel->schema();
      // Resolve throws on unknown columns; the Fd constructor rejects
      // overlapping sides — both before any state changes.
      fd::Fd fd(schema.Resolve(declare->lhs), schema.Resolve(declare->rhs));
      // SAMPLE k [SEED s] routes the FD to the table's sampled monitor.
      const bool sampled = declare->sample_size != 0;
      std::unique_ptr<fd::SchemaMonitor>& monitor =
          sampled ? entry->sampled : entry->monitor;
      const std::string what = sampled ? "sampled monitor" : "monitor";
      if (!monitor) {
        const size_t interval = declare->check_interval != 0
                                    ? declare->check_interval
                                    : opts_.default_check_interval;
        monitor = sampled ? std::make_unique<fd::SchemaMonitor>(
                                entry->rel, std::vector<fd::Fd>{}, interval,
                                declare->sample_size, declare->sample_seed)
                          : std::make_unique<fd::SchemaMonitor>(
                                entry->rel, std::vector<fd::Fd>{}, interval);
        InstallDriftCallback(entry, monitor.get(), declare->table);
      } else if (declare->check_interval != 0 &&
                 declare->check_interval != monitor->check_interval()) {
        throw std::invalid_argument(
            what + " on '" + declare->table + "' already checks EVERY " +
            std::to_string(monitor->check_interval()) +
            "; one interval per table");
      } else if (sampled &&
                 (declare->sample_size != monitor->sample_capacity() ||
                  declare->sample_seed != monitor->sample_seed())) {
        throw std::invalid_argument(
            what + " on '" + declare->table + "' already uses SAMPLE " +
            std::to_string(monitor->sample_capacity()) + " SEED " +
            std::to_string(monitor->sample_seed()) +
            "; one reservoir per table");
      }
      db_.DeclareFd(declare->table, fd);
      monitor->AddFd(std::move(fd));
      if (opts_.record_journal) entry->journal.push_back(declare->ToString());
      res.reply = FormatOk(0);
      return res;
    }
    if (const auto* sub = std::get_if<sql::SubscribeStatement>(&stmt)) {
      std::shared_ptr<SessionRec> rec = FindSession(id);
      if (!rec) throw std::invalid_argument("unknown session");
      std::shared_lock cat(catalog_mutex_);
      TableEntry* entry = FindEntry(sub->table);
      std::unique_lock table(entry->mutex);
      bool present = false;
      for (const auto& s : entry->subscribers) present |= (s == rec);
      if (!present) entry->subscribers.push_back(std::move(rec));
      res.reply = FormatOk(0);
      return res;
    }
    if (std::get_if<sql::CheckpointStatement>(&stmt)) {
      std::string error;
      if (!SaveCheckpoint(&error)) throw std::runtime_error(error);
      res.reply = FormatOk(0);
      return res;
    }
    // SHUTDOWN: acknowledge, then let the serving layer stop (and
    // checkpoint, when configured).
    res.reply = FormatOk(0);
    res.shutdown = true;
    return res;
  } catch (const std::exception& e) {
    res.reply = FormatError(e.what());
    return res;
  }
}

bool Service::SaveCheckpoint(std::string* error) {
  if (opts_.checkpoint_path.empty()) {
    if (error) *error = "no checkpoint path configured";
    return false;
  }
  // The exclusive catalog lock quiesces every session (all data paths
  // hold it shared), so the snapshot is a consistent cut.
  std::unique_lock cat(catalog_mutex_);
  return storage::SaveServerSnapshot(db_, MonitorStates(),
                                     opts_.checkpoint_path, error);
}

std::string Service::SerializeState() const {
  std::unique_lock cat(catalog_mutex_);
  return storage::SerializeServerState(db_, MonitorStates());
}

std::vector<storage::ServerMonitorState> Service::MonitorStates() const {
  std::vector<storage::ServerMonitorState> states;
  for (const auto& [name, entry] : tables_) {
    if (entry->monitor) states.push_back({name, entry->monitor->State()});
    if (entry->sampled) states.push_back({name, entry->sampled->State()});
  }
  return states;
}

std::vector<std::string> Service::Journal(const std::string& table) const {
  std::shared_lock cat(catalog_mutex_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return {};
  std::shared_lock tl(it->second->mutex);
  return it->second->journal;
}

std::vector<std::string> Service::TableNames() const {
  std::shared_lock cat(catalog_mutex_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, entry] : tables_) names.push_back(name);
  return names;
}

std::vector<fd::DriftEvent> Service::DriftLogOf(const std::string& table,
                                                bool sampled) const {
  std::shared_lock cat(catalog_mutex_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return {};
  std::shared_lock tl(it->second->mutex);
  const auto& monitor = sampled ? it->second->sampled : it->second->monitor;
  return monitor ? monitor->drift_log() : std::vector<fd::DriftEvent>{};
}

std::vector<fd::DriftEvent> Service::DriftLog(const std::string& table) const {
  return DriftLogOf(table, false);
}

std::vector<fd::DriftEvent> Service::SampledDriftLog(
    const std::string& table) const {
  return DriftLogOf(table, true);
}

}  // namespace fdevolve::server
