// YCSB-style key-value workload under Silo-style OCC: one table of 1M
// 100-byte records, Zipfian keys (theta 0.8), 8 distinct records per
// request. Half the requests only read; the other half move amounts between
// pairs of the records, so the table's total balance is conserved. Every
// value carries a checksum of its key and contents that each read verifies.
#include <cstddef>
#include <thread>

#include "tx.h"

namespace ebench {
namespace {

using ermia::Oid;
using ermia::Slice;
using ermia::Status;

constexpr uint32_t kRecords = 1000000;
constexpr uint32_t kPerRequest = 8;
constexpr double kTheta = 0.8;
constexpr int64_t kInitialBalance = 1000;

struct __attribute__((packed)) Value {
  int64_t balance;
  uint64_t version;
  char filler[76];
  uint64_t checksum;
};
static_assert(sizeof(Value) == 100, "YCSB records are 100 bytes");

Key RecKey(uint32_t k) { return Key().U32(k); }

uint64_t Checksum(uint32_t key, const Value& v) {
  return Mix64(Fnv1a(&key, sizeof key) ^
               Fnv1a(&v, offsetof(Value, checksum)));
}

enum Type : uint32_t { kRead = 0, kTransfer };

class Ycsb;

class YcsbClient : public Client {
 public:
  YcsbClient(Ycsb* wl, ermia::Database* db, uint32_t worker);
  uint32_t Prepare(Rng& rng) override;
  Outcome Attempt(Tracer& t) override;

 private:
  Ycsb* wl_;
  ermia::Database* db_;
  uint32_t worker_;
  uint32_t type_ = 0;
  uint32_t keys_[kPerRequest] = {};
  int64_t amounts_[kPerRequest / 2] = {};
  int64_t extra_ = 0;  // self-test: credit without a matching debit
};

class Ycsb : public Workload {
 public:
  Ycsb(uint64_t seed, uint32_t workers)
      : seed_(seed),
        workers_(workers),
        zipf_(kRecords, kTheta),
        bad_reads_(workers, 0) {}

  std::vector<std::string> TypeNames() const override {
    return {"read", "transfer"};
  }
  ermia::CcScheme Scheme() const override { return ermia::CcScheme::kOcc; }
  bool SyncCommit() const override { return false; }

  void CreateSchema(ermia::Database* db) override {
    table_ = db->CreateTable("usertable");
    pk_ = db->CreateIndex(table_, "usertable_pk");
  }

  uint64_t Load(ermia::Database* db) override {
    std::vector<std::thread> loaders;
    for (uint32_t l = 0; l < workers_; ++l) {
      loaders.emplace_back([this, db, l] {
        Rng rng(seed_, 500 + l);
        Tracer t(0);
        LoadBatch b(db, t);
        for (uint32_t k = l; k < kRecords; k += workers_) {
          Value v;
          std::memset(&v, 0, sizeof v);
          v.balance = kInitialBalance;
          for (char& c : v.filler) c = static_cast<char>('a' + rng.Uniform(0, 25));
          v.checksum = Checksum(k, v);
          if (corrupt_checksum_ && k == zipf_hottest()) v.checksum ^= 1;
          b.Insert(table_, pk_, RecKey(k), RowSlice(v));
        }
        b.Finish();
        ermia::ThreadRegistry::Deregister();
      });
    }
    for (auto& t : loaders) t.join();
    return kRecords;
  }

  std::unique_ptr<Client> MakeClient(ermia::Database* db,
                                     uint32_t worker) override {
    return std::make_unique<YcsbClient>(this, db, worker);
  }

  std::vector<std::pair<std::string, Digest>> Check(
      ermia::Database* db, std::vector<std::string>* errors) override {
    uint64_t bad_reads = 0;
    for (uint64_t b : bad_reads_) bad_reads += b;
    if (bad_reads > 0) {
      errors->push_back(std::to_string(bad_reads) +
                        " reads returned a value whose checksum is wrong");
    }
    Digest dg;
    int64_t total = 0;
    uint64_t bad = 0;
    Tracer t(0);
    Tx tx(t, db, ermia::CcScheme::kSi, true);
    const Status s = tx.Scan(pk_, Key().U32(0), Key(), -1,
                             [&](const Slice& k, const Slice& raw) {
                               dg.Add(k, raw);
                               Value v;
                               if (!LoadRow(raw, &v) || k.size() != 4 ||
                                   v.checksum != Checksum(DecodeU32(k.data()), v)) {
                                 ++bad;
                                 return true;
                               }
                               total += v.balance;
                               return true;
                             });
    if (!s.ok()) errors->push_back("scan usertable: " + s.ToString());
    const Status cs = tx.Commit();
    if (!cs.ok()) errors->push_back("check commit: " + cs.ToString());
    if (bad > 0) {
      errors->push_back(std::to_string(bad) + " stored records fail their checksum");
    }
    if (dg.rows != kRecords) {
      errors->push_back("usertable holds " + std::to_string(dg.rows) +
                        " records, expected " + std::to_string(kRecords));
    }
    const int64_t expect = int64_t{kRecords} * kInitialBalance;
    if (bad == 0 && total != expect) {
      errors->push_back("total balance " + std::to_string(total) +
                        " != " + std::to_string(expect) + " (not conserved)");
    }
    if (corrupt_digest_ && checks_ == 0) dg.sum += 1;
    ++checks_;
    return {{"usertable", dg}};
  }

  Status Probe(ermia::Database* db) override {
    Tracer t(0);
    Tx tx(t, db, ermia::CcScheme::kSi, true);
    Value v;
    Status s = tx.ReadRow(pk_, RecKey(0), &v);
    if (s.ok()) s = tx.Commit();
    return s;
  }

  bool Corrupt(const std::string& what) override {
    if (what == "transfer") {
      corrupt_transfer_ = true;
    } else if (what == "checksum") {
      corrupt_checksum_ = true;
    } else if (what == "digest") {
      corrupt_digest_ = true;
    } else {
      return false;
    }
    return true;
  }

  ermia::Table* table() const { return table_; }
  ermia::Index* pk() const { return pk_; }
  const Zipf& zipf() const { return zipf_; }
  bool corrupt_transfer() const { return corrupt_transfer_; }
  void BadRead(uint32_t worker) { ++bad_reads_[worker]; }

 private:
  // The key Zipf rank 0 maps to (the most requested record).
  uint32_t zipf_hottest() const {
    return static_cast<uint32_t>(Mix64(0) % kRecords);
  }

  uint64_t seed_;
  uint32_t workers_;
  Zipf zipf_;
  ermia::Table* table_ = nullptr;
  ermia::Index* pk_ = nullptr;
  std::vector<uint64_t> bad_reads_;  // per worker
  bool corrupt_transfer_ = false;
  bool corrupt_checksum_ = false;
  bool corrupt_digest_ = false;
  uint32_t checks_ = 0;
};

YcsbClient::YcsbClient(Ycsb* wl, ermia::Database* db, uint32_t worker)
    : wl_(wl), db_(db), worker_(worker) {
  if (worker == 0 && wl->corrupt_transfer()) extra_ = 1;
}

uint32_t YcsbClient::Prepare(Rng& rng) {
  type_ = rng.Bernoulli(0.5) ? kRead : kTransfer;
  for (uint32_t i = 0; i < kPerRequest; ++i) {
    bool dup;
    do {
      keys_[i] = static_cast<uint32_t>(wl_->zipf().Next(rng));
      dup = false;
      for (uint32_t j = 0; j < i; ++j) dup |= keys_[j] == keys_[i];
    } while (dup);
  }
  for (int64_t& a : amounts_) a = static_cast<int64_t>(rng.Uniform(1, 100));
  return type_;
}

Outcome YcsbClient::Attempt(Tracer& t) {
  // Readers are not declared read-only: they run the full OCC read-set
  // validation instead of the lagging read-only snapshot.
  Tx tx(t, db_, ermia::CcScheme::kOcc, false);
  Value v[kPerRequest];
  Oid oids[kPerRequest];
  for (uint32_t i = 0; i < kPerRequest; ++i) {
    const Status s = tx.ReadRow(wl_->pk(), RecKey(keys_[i]), &v[i], &oids[i]);
    if (!s.ok()) return Classify(s);
    if (v[i].checksum != Checksum(keys_[i], v[i])) wl_->BadRead(worker_);
  }
  if (type_ == kTransfer) {
    for (uint32_t p = 0; p < kPerRequest / 2; ++p) {
      v[2 * p].balance -= amounts_[p];
      v[2 * p + 1].balance += amounts_[p] + (p == 0 ? extra_ : 0);
    }
    for (uint32_t i = 0; i < kPerRequest; ++i) {
      v[i].version++;
      v[i].checksum = Checksum(keys_[i], v[i]);
      const Status s = tx.Update(wl_->table(), oids[i], RowSlice(v[i]));
      if (!s.ok()) return Classify(s);
    }
  }
  const Status s = tx.Commit();
  if (!s.ok()) return Classify(s);
  if (type_ == kTransfer) extra_ = 0;
  return Outcome::kCommitted;
}

}  // namespace

std::unique_ptr<Workload> MakeYcsb(uint64_t seed, uint32_t workers) {
  return std::make_unique<Ycsb>(seed, workers);
}

}  // namespace ebench
