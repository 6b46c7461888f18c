// Tx: one engine transaction whose every call is routed through the
// request's Tracer, so a traced request records a span per engine call.
#ifndef EBENCH_TX_H_
#define EBENCH_TX_H_

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>

#include "harness.h"

namespace ebench {

[[noreturn]] inline void Die(const char* what, const ermia::Status& s) {
  std::fprintf(stderr, "ebench: %s: %s\n", what, s.ToString().c_str());
  std::fflush(stderr);
  std::_Exit(3);
}

class Tx {
 public:
  Tx(Tracer& t, ermia::Database* db, ermia::CcScheme scheme, bool read_only)
      : t_(t) {
    t_.Call(Op::kBegin, [&] { txn_.emplace(db, scheme, read_only); });
  }
  ~Tx() {
    if (!txn_->finished()) t_.Call(Op::kAbort, [&] { txn_->Abort(); });
  }
  Tx(const Tx&) = delete;
  Tx& operator=(const Tx&) = delete;

  ermia::Status GetOid(ermia::Index* ix, const Key& k, ermia::Oid* oid) {
    return t_.Call(Op::kLookup, [&] { return txn_->GetOid(ix, k.slice(), oid); });
  }
  ermia::Status Read(ermia::Table* tb, ermia::Oid oid, ermia::Slice* v) {
    return t_.Call(Op::kRead, [&] { return txn_->Read(tb, oid, v); });
  }
  // GetOid then Read, copied into a row struct.
  template <typename Row>
  ermia::Status ReadRow(ermia::Index* ix, const Key& k, Row* row,
                        ermia::Oid* oid = nullptr) {
    ermia::Oid o = 0;
    ermia::Status s = GetOid(ix, k, &o);
    if (!s.ok()) return s;
    return ReadOid(ix->table(), o, row, oid);
  }
  template <typename Row>
  ermia::Status ReadOid(ermia::Table* tb, ermia::Oid o, Row* row,
                        ermia::Oid* oid = nullptr) {
    ermia::Slice raw;
    ermia::Status s = Read(tb, o, &raw);
    if (!s.ok()) return s;
    if (!LoadRow(raw, row)) return ermia::Status::Corruption("row size");
    if (oid != nullptr) *oid = o;
    return s;
  }
  ermia::Status Update(ermia::Table* tb, ermia::Oid oid, const ermia::Slice& v) {
    return t_.Call(Op::kUpdate, [&] { return txn_->Update(tb, oid, v); });
  }
  ermia::Status Delete(ermia::Table* tb, ermia::Oid oid) {
    return t_.Call(Op::kUpdate, [&] { return txn_->Delete(tb, oid); });
  }
  ermia::Status Insert(ermia::Table* tb, ermia::Index* ix, const Key& k,
                       const ermia::Slice& v) {
    ermia::Oid oid = 0;
    return Insert(tb, ix, k, v, &oid);
  }
  ermia::Status Insert(ermia::Table* tb, ermia::Index* ix, const Key& k,
                       const ermia::Slice& v, ermia::Oid* oid) {
    return t_.Call(Op::kInsert,
                   [&] { return txn_->Insert(tb, ix, k.slice(), v, oid); });
  }
  ermia::Status InsertIndexEntry(ermia::Index* ix, const Key& k,
                                 ermia::Oid oid) {
    return t_.Call(Op::kInsert,
                   [&] { return txn_->InsertIndexEntry(ix, k.slice(), oid); });
  }
  ermia::Status ScanOids(
      ermia::Index* ix, const Key& lo, const Key& hi, int64_t limit,
      const std::function<bool(const ermia::Slice&, ermia::Oid)>& cb,
      bool reverse = false) {
    uint64_t rows = 0;
    auto counted = [&](const ermia::Slice& k, ermia::Oid o) {
      ++rows;
      return cb(k, o);
    };
    return t_.Call(
        Op::kScan,
        [&] {
          return txn_->ScanOids(ix, lo.slice(), hi.slice(), limit, counted,
                                reverse);
        },
        &rows);
  }
  ermia::Status Scan(
      ermia::Index* ix, const Key& lo, const Key& hi, int64_t limit,
      const std::function<bool(const ermia::Slice&, const ermia::Slice&)>& cb) {
    uint64_t rows = 0;
    auto counted = [&](const ermia::Slice& k, const ermia::Slice& v) {
      ++rows;
      return cb(k, v);
    };
    return t_.Call(
        Op::kScan,
        [&] { return txn_->Scan(ix, lo.slice(), hi.slice(), limit, counted); },
        &rows);
  }
  ermia::Status Commit() {
    return t_.Call(Op::kCommit, [&] { return txn_->Commit(); });
  }
  void Abort() {
    t_.Call(Op::kAbort, [&] { txn_->Abort(); });
  }

 private:
  Tracer& t_;
  std::optional<ermia::Transaction> txn_;
};

// Commits a loader transaction every kBatch inserts.
class LoadBatch {
 public:
  LoadBatch(ermia::Database* db, Tracer& t) : db_(db), t_(t) { Fresh(); }
  ~LoadBatch() { Finish(); }

  // Inserts one row, plus its entry in `secondary` when given, in the
  // current batch.
  void Insert(ermia::Table* tb, ermia::Index* ix, const Key& k,
              const ermia::Slice& v, ermia::Index* secondary = nullptr,
              const Key* secondary_key = nullptr) {
    ermia::Oid oid = 0;
    ermia::Status s = tx_->Insert(tb, ix, k, v, &oid);
    if (!s.ok()) Die("load insert", s);
    if (secondary != nullptr) {
      s = tx_->InsertIndexEntry(secondary, *secondary_key, oid);
      if (!s.ok()) Die("load index entry", s);
    }
    ++rows_;
    Tick();
  }
  void Finish() {
    if (!tx_) return;
    ermia::Status s = tx_->Commit();
    if (!s.ok()) Die("load commit", s);
    tx_.reset();
  }
  uint64_t rows() const { return rows_; }

 private:
  static constexpr uint64_t kBatch = 1000;
  void Fresh() { tx_.emplace(t_, db_, ermia::CcScheme::kSi, false); }
  void Tick() {
    if (rows_ % kBatch == 0) {
      Finish();
      Fresh();
    }
  }

  ermia::Database* db_;
  Tracer& t_;
  std::optional<Tx> tx_;
  uint64_t rows_ = 0;
};

}  // namespace ebench

#endif  // EBENCH_TX_H_
