#include "server/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <map>
#include <utility>

#include "util/fault.h"

namespace scpm {

namespace {

/// fsyncs the directory itself so a rename (or create) inside it is
/// durable. Best-effort: some filesystems reject directory fsync.
void SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

bool WriteFully(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Result<std::unique_ptr<StateStore>> StateStore::Open(const std::string& dir) {
  if (dir.empty()) {
    return Status::InvalidArgument("state directory path is empty");
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("mkdir " + dir + ": " + std::strerror(errno));
  }
  const std::string journal = dir + "/journal.jsonl";
  const int fd = ::open(journal.c_str(),
                        O_CREAT | O_WRONLY | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("open " + journal + ": " + std::strerror(errno));
  }
  return std::unique_ptr<StateStore>(new StateStore(dir, fd));
}

StateStore::StateStore(std::string dir, int journal_fd)
    : dir_(std::move(dir)), journal_fd_(journal_fd) {}

StateStore::~StateStore() {
  if (journal_fd_ >= 0) ::close(journal_fd_);
}

std::string StateStore::CheckpointPath(std::uint64_t id) const {
  return dir_ + "/q" + std::to_string(id) + ".ckpt";
}

Status StateStore::AppendLine(const std::string& line) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.appends;
  if (FaultInjector::Instance().ShouldFail(fault::kJournalWrite)) {
    ++stats_.io_errors;
    return Status::IoError("injected fault: journal append");
  }
  if (!WriteFully(journal_fd_, line + "\n")) {
    ++stats_.io_errors;
    return Status::IoError("journal append: " + std::string(strerror(errno)));
  }
  if (::fsync(journal_fd_) != 0) {
    ++stats_.io_errors;
    return Status::IoError("journal fsync: " + std::string(strerror(errno)));
  }
  ++stats_.fsyncs;
  return Status::OK();
}

Status StateStore::AppendServer(std::uint64_t epoch, std::uint64_t vertices,
                                std::uint64_t edges,
                                std::uint64_t attributes) {
  JsonValue record = JsonValue::MakeObject();
  record.Set("t", JsonValue("server"));
  record.Set("epoch", JsonValue(epoch));
  record.Set("vertices", JsonValue(vertices));
  record.Set("edges", JsonValue(edges));
  record.Set("attributes", JsonValue(attributes));
  return AppendLine(record.Dump());
}

Status StateStore::AppendAdmit(std::uint64_t id, std::uint64_t epoch,
                               const JsonValue& query) {
  JsonValue record = JsonValue::MakeObject();
  record.Set("t", JsonValue("admit"));
  record.Set("id", JsonValue(id));
  record.Set("epoch", JsonValue(epoch));
  record.Set("query", query);
  return AppendLine(record.Dump());
}

Status StateStore::AppendProgress(std::uint64_t id, std::uint64_t emitted,
                                  std::uint64_t jsonl_lines) {
  JsonValue record = JsonValue::MakeObject();
  record.Set("t", JsonValue("progress"));
  record.Set("id", JsonValue(id));
  record.Set("emitted", JsonValue(emitted));
  record.Set("jsonl_lines", JsonValue(jsonl_lines));
  return AppendLine(record.Dump());
}

Status StateStore::AppendTerminal(std::uint64_t id, const char* state) {
  JsonValue record = JsonValue::MakeObject();
  record.Set("t", JsonValue("terminal"));
  record.Set("id", JsonValue(id));
  record.Set("state", JsonValue(state));
  return AppendLine(record.Dump());
}

Status StateStore::WriteCheckpoint(std::uint64_t id, const EngineCheckpoint& cp,
                                   std::uint64_t emitted,
                                   std::uint64_t patterns_emitted,
                                   std::uint64_t jsonl_lines) {
  const std::string path = CheckpointPath(id);
  const std::string tmp = path + ".tmp";
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.checkpoint_writes;
  }
  const auto fail = [&](const std::string& what) {
    ::unlink(tmp.c_str());
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.io_errors;
    return Status::IoError(what);
  };
  if (FaultInjector::Instance().ShouldFail(fault::kCheckpointWrite)) {
    return fail("injected fault: checkpoint write");
  }
  const int fd =
      ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) {
    return fail("open " + tmp + ": " + std::strerror(errno));
  }
  const std::string text = "scpm-query-meta 1 " + std::to_string(emitted) +
                           ' ' + std::to_string(patterns_emitted) + ' ' +
                           std::to_string(jsonl_lines) + '\n' +
                           cp.Serialize();
  if (!WriteFully(fd, text)) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return fail("write " + tmp + ": " + err);
  }
  if (::fsync(fd) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return fail("fsync " + tmp + ": " + err);
  }
  ::close(fd);
  // The atomic step: a crash before this leaves the old snapshot, after
  // it the new one — never a torn file at the final path.
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail("rename " + tmp + ": " + std::strerror(errno));
  }
  SyncDir(dir_);
  return Status::OK();
}

void StateStore::RemoveCheckpoint(std::uint64_t id) {
  ::unlink(CheckpointPath(id).c_str());
  ::unlink((CheckpointPath(id) + ".tmp").c_str());
}

JournalStats StateStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

RecoveryScan StateStore::Scan() const {
  RecoveryScan scan;
  std::ifstream in(dir_ + "/journal.jsonl");
  if (!in.is_open()) return scan;  // fresh directory: nothing to recover

  struct Entry {
    RecoveredQuery query;
    bool terminal = false;
  };
  std::map<std::uint64_t, Entry> entries;
  std::vector<std::uint64_t> admit_order;

  std::string line;
  std::uint64_t line_no = 0;
  bool pending_bad_line = false;
  std::string bad_line_warning;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    // A malformed line only counts as "torn tail" if nothing valid
    // follows it; flush the previous suspicion first.
    if (pending_bad_line) {
      scan.warnings.push_back(bad_line_warning);
      pending_bad_line = false;
    }
    Result<JsonValue> parsed = JsonValue::Parse(line);
    if (!parsed.ok() || !parsed->is_object()) {
      pending_bad_line = true;
      bad_line_warning = "journal line " + std::to_string(line_no) +
                         " unparseable; record skipped";
      continue;
    }
    const JsonValue& record = *parsed;
    const std::string type = record.StringOr("t", "");
    if (type == "server") {
      scan.epoch = static_cast<std::uint64_t>(record.NumberOr("epoch", 0));
      scan.vertices =
          static_cast<std::uint64_t>(record.NumberOr("vertices", 0));
      scan.edges = static_cast<std::uint64_t>(record.NumberOr("edges", 0));
      scan.attributes =
          static_cast<std::uint64_t>(record.NumberOr("attributes", 0));
    } else if (type == "admit") {
      const std::uint64_t id =
          static_cast<std::uint64_t>(record.NumberOr("id", 0));
      const JsonValue* query = record.Find("query");
      if (id == 0 || query == nullptr || !query->is_object()) {
        scan.warnings.push_back("journal line " + std::to_string(line_no) +
                                " has a malformed admit record; skipped");
        continue;
      }
      Entry entry;
      entry.query.id = id;
      entry.query.epoch =
          static_cast<std::uint64_t>(record.NumberOr("epoch", 0));
      entry.query.query = *query;
      if (entries.emplace(id, std::move(entry)).second) {
        admit_order.push_back(id);
      }
      if (id > scan.max_id) scan.max_id = id;
    } else if (type == "progress") {
      // Observability only: recovery counters come from the checkpoint
      // file's meta header, which is atomic with the snapshot itself.
      const std::uint64_t id =
          static_cast<std::uint64_t>(record.NumberOr("id", 0));
      if (entries.find(id) == entries.end()) {
        scan.warnings.push_back("journal line " + std::to_string(line_no) +
                                " reports progress for unknown query " +
                                std::to_string(id) + "; skipped");
      }
    } else if (type == "terminal") {
      const std::uint64_t id =
          static_cast<std::uint64_t>(record.NumberOr("id", 0));
      auto it = entries.find(id);
      if (it != entries.end()) it->second.terminal = true;
    } else {
      scan.warnings.push_back("journal line " + std::to_string(line_no) +
                              " has unknown record type \"" + type +
                              "\"; skipped");
    }
  }
  if (pending_bad_line) {
    // The classic crash signature: the process died mid-append. The
    // fsync discipline means at most this one record is lost.
    scan.warnings.push_back("journal ends in a torn record (line " +
                            std::to_string(line_no) +
                            "); dropped, earlier records intact");
  }

  for (std::uint64_t id : admit_order) {
    Entry& entry = entries.at(id);
    if (entry.terminal) continue;
    if (entry.query.epoch != scan.epoch) {
      scan.warnings.push_back(
          "query " + std::to_string(id) + " was admitted under epoch " +
          std::to_string(entry.query.epoch) + " but the journal epoch is " +
          std::to_string(scan.epoch) + "; discarded as stale");
      continue;
    }
    std::ifstream ckpt(CheckpointPath(id));
    if (ckpt.is_open()) {
      std::string magic;
      std::uint64_t version = 0;
      bool meta_ok = false;
      if (ckpt >> magic >> version && magic == "scpm-query-meta" &&
          version == 1 &&
          ckpt >> entry.query.emitted >> entry.query.patterns_emitted >>
              entry.query.jsonl_lines) {
        meta_ok = true;
      }
      Result<EngineCheckpoint> loaded =
          meta_ok ? EngineCheckpoint::Load(ckpt)
                  : Result<EngineCheckpoint>(Status::InvalidArgument(
                        "checkpoint meta header malformed"));
      if (loaded.ok()) {
        entry.query.checkpoint = std::move(loaded).value();
        entry.query.has_checkpoint = true;
      } else {
        scan.warnings.push_back("query " + std::to_string(id) +
                                " checkpoint unreadable (" +
                                loaded.status().ToString() +
                                "); will re-run from scratch");
        entry.query.emitted = 0;
        entry.query.patterns_emitted = 0;
        entry.query.jsonl_lines = 0;
      }
    }
    // Admitted but never snapshotted (or snapshot unreadable): the
    // query re-runs whole from its journaled spec.
    scan.queries.push_back(std::move(entry.query));
  }
  return scan;
}

}  // namespace scpm
