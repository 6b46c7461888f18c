// TPC-C (v5.11) and the TPC-C-hybrid mix (TPC-CH Q2*, paper §4.2), written
// against the engine's public API only. Money is kept in integer cents so
// the consistency conditions and the client tallies compare exactly.
//
// One home warehouse per worker, full spec population per warehouse. Each
// request's inputs are drawn once from the worker's seeded stream, so a
// retried request repeats exactly the same work.
#include <algorithm>
#include <cstring>
#include <sstream>
#include <thread>

#include "tx.h"

namespace ebench {
namespace {

using ermia::Index;
using ermia::Oid;
using ermia::Slice;
using ermia::Status;
using ermia::Table;

constexpr uint32_t kItems = 100000;
constexpr uint32_t kDistricts = 10;
constexpr uint32_t kCustomers = 3000;       // per district
constexpr uint32_t kInitialOrders = 3000;   // per district
constexpr uint32_t kFirstNewOrder = 2101;   // initial orders >= this are new
constexpr uint32_t kSuppliers = 10000;
constexpr uint32_t kNations = 62;
constexpr uint32_t kRegions = 5;
constexpr int64_t kInitialWYtd = 30000000;  // 300,000.00
constexpr int64_t kInitialDYtd = 3000000;   // 30,000.00
// Q2* scans this share of each warehouse's stock key range.
constexpr uint32_t kQ2Items = kItems / 10;

// NURand C constants (TPC-C 2.1.6; run and load C_LAST differ by 66).
constexpr uint64_t kCLastLoad = 157;
constexpr uint64_t kCLastRun = 223;
constexpr uint64_t kCId = 259;
constexpr uint64_t kOlIId = 7911;

template <typename... A>
std::string Cat(const A&... a) {
  std::ostringstream o;
  (o << ... << a);
  return o.str();
}

template <typename T>
void Zero(T* row) {
  std::memset(static_cast<void*>(row), 0, sizeof(T));
}

void Fill(char* dst, size_t cap, const std::string& s) {
  const size_t n = std::min(cap - 1, s.size());
  std::memcpy(dst, s.data(), n);
  dst[n] = '\0';
}

// ---- rows -------------------------------------------------------------------

struct WarehouseRow {
  int64_t w_ytd;
  int32_t w_tax_bp;
  char w_name[11];
  char w_street_1[21];
  char w_street_2[21];
  char w_city[21];
  char w_state[3];
  char w_zip[10];
};

struct DistrictRow {
  int64_t d_ytd;
  int32_t d_tax_bp;
  int32_t d_next_o_id;
  char d_name[11];
  char d_street_1[21];
  char d_street_2[21];
  char d_city[21];
  char d_state[3];
  char d_zip[10];
};

struct CustomerRow {
  int64_t c_credit_lim;
  int64_t c_balance;
  int64_t c_ytd_payment;
  int32_t c_discount_bp;
  int32_t c_payment_cnt;
  int32_t c_delivery_cnt;
  char c_first[17];
  char c_middle[3];
  char c_last[17];
  char c_street_1[21];
  char c_street_2[21];
  char c_city[21];
  char c_state[3];
  char c_zip[10];
  char c_phone[17];
  char c_credit[3];
  uint64_t c_since;
  char c_data[501];
};

struct HistoryRow {
  int64_t h_amount;
  int32_t h_c_id;
  int32_t h_c_d_id;
  int32_t h_c_w_id;
  int32_t h_d_id;
  int32_t h_w_id;
  uint64_t h_date;
  char h_data[25];
};

struct NewOrderRow {
  int32_t no_o_id;
};

struct OrderRow {
  int32_t o_c_id;
  int32_t o_carrier_id;  // 0 = not delivered
  int32_t o_ol_cnt;
  int32_t o_all_local;
  uint64_t o_entry_d;
};

struct OrderLineRow {
  int32_t ol_i_id;
  int32_t ol_supply_w_id;
  int32_t ol_quantity;
  int64_t ol_amount;
  uint64_t ol_delivery_d;  // 0 = not delivered
  char ol_dist_info[25];
};

struct ItemRow {
  int64_t i_price;
  int32_t i_im_id;
  char i_name[25];
  char i_data[51];
};

struct StockRow {
  int32_t s_quantity;
  int32_t s_ytd;
  int32_t s_order_cnt;
  int32_t s_remote_cnt;
  char s_dist[10][25];
  char s_data[51];
};

struct SupplierRow {
  int32_t su_nationkey;
  int64_t su_acctbal;
  char su_name[26];
  char su_phone[16];
};

struct NationRow {
  int32_t n_regionkey;
  char n_name[26];
};

struct RegionRow {
  char r_name[26];
};

// ---- keys -------------------------------------------------------------------

Key WKey(uint32_t w) { return Key().U32(w); }
Key DKey(uint32_t w, uint32_t d) { return Key().U32(w).U32(d); }
Key CKey(uint32_t w, uint32_t d, uint32_t c) { return Key().U32(w).U32(d).U32(c); }
Key CNameKey(uint32_t w, uint32_t d, const char* last, const char* first,
             uint32_t c) {
  return Key().U32(w).U32(d).Str(last, 16).Str(first, 16).U32(c);
}
Key OKey(uint32_t w, uint32_t d, uint32_t o) { return Key().U32(w).U32(d).U32(o); }
Key OCustKey(uint32_t w, uint32_t d, uint32_t c, uint32_t o) {
  return Key().U32(w).U32(d).U32(c).U32(o);
}
Key OlKey(uint32_t w, uint32_t d, uint32_t o, uint32_t ol) {
  return Key().U32(w).U32(d).U32(o).U32(ol);
}
Key IKey(uint32_t i) { return Key().U32(i); }
Key SKey(uint32_t w, uint32_t i) { return Key().U32(w).U32(i); }
Key HKey(uint32_t tag, uint32_t seq) { return Key().U32(tag).U32(seq); }

std::string LastName(uint32_t num) {
  static const char* kSyl[] = {"BAR", "OUGHT", "ABLE",  "PRI",   "PRES",
                               "ESE", "ANTI",  "CALLY", "ATION", "EING"};
  return std::string(kSyl[num / 100]) + kSyl[(num / 10) % 10] + kSyl[num % 10];
}

struct Schema {
  Table* warehouse = nullptr;
  Table* district = nullptr;
  Table* customer = nullptr;
  Table* history = nullptr;
  Table* neworder = nullptr;
  Table* order = nullptr;
  Table* orderline = nullptr;
  Table* item = nullptr;
  Table* stock = nullptr;
  Table* supplier = nullptr;
  Table* nation = nullptr;
  Table* region = nullptr;
  Index* warehouse_pk = nullptr;
  Index* district_pk = nullptr;
  Index* customer_pk = nullptr;
  Index* customer_name = nullptr;
  Index* history_pk = nullptr;
  Index* neworder_pk = nullptr;
  Index* order_pk = nullptr;
  Index* order_cust = nullptr;
  Index* orderline_pk = nullptr;
  Index* item_pk = nullptr;
  Index* stock_pk = nullptr;
  Index* supplier_pk = nullptr;
  Index* nation_pk = nullptr;
  Index* region_pk = nullptr;
};

enum Type : uint32_t {
  kNewOrder = 0,
  kPayment,
  kOrderStatus,
  kDelivery,
  kStockLevel,
  kQ2Star,
};

// What each worker saw commit, kept apart from the engine.
struct Tally {
  std::vector<int64_t> paid;          // cents, per warehouse (index w)
  std::vector<uint64_t> new_orders;   // per (w, d): w * kDistricts + d - 1
};

class Tpcc;

class TpccClient : public Client {
 public:
  TpccClient(Tpcc* wl, ermia::Database* db, uint32_t worker);
  uint32_t Prepare(Rng& rng) override;
  Outcome Attempt(Tracer& t) override;

 private:
  struct Line {
    uint32_t i_id;
    uint32_t supply_w;
    int32_t qty;
  };
  struct CustomerPick {
    bool by_name;
    uint32_t c_id;
    char last[17];
  };

  void PickCustomer(Rng& rng, CustomerPick* p);
  Status SelectCustomer(Tx& tx, uint32_t w, uint32_t d, const CustomerPick& p,
                        CustomerRow* row, Oid* oid, uint32_t* c_id);
  Outcome NewOrder(Tracer& t);
  Outcome Payment(Tracer& t);
  Outcome OrderStatus(Tracer& t);
  Outcome Delivery(Tracer& t);
  Outcome StockLevel(Tracer& t);
  Outcome Q2Star(Tracer& t);

  Tpcc* wl_;
  ermia::Database* db_;
  const Schema& s_;
  ermia::CcScheme scheme_;
  uint32_t worker_;
  uint32_t home_;
  uint32_t warehouses_;
  Tally& tally_;

  // Prepared request.
  uint32_t type_ = 0;
  uint64_t seq_ = 0;
  uint32_t d_ = 0;
  CustomerPick cust_{};
  // NewOrder
  uint32_t no_c_ = 0;
  std::vector<Line> lines_;
  bool rollback_ = false;
  // Payment
  uint32_t c_w_ = 0, c_d_ = 0;
  int64_t amount_ = 0;
  // Delivery
  uint32_t carrier_ = 0;
  // StockLevel / Q2*
  int32_t threshold_ = 0;
  uint32_t region_ = 0;
  // Delivery: per district, no undelivered order of the home warehouse lies
  // below hint_ (only this worker delivers there). Like Silo's and ERMIA's
  // own TPC-C, the oldest-NEW-ORDER scan starts there instead of at 0: the
  // engine keeps index entries of deleted rows, so a scan from 0 walks every
  // order delivered so far. pending_ is this attempt's advance, applied only
  // if it commits.
  uint32_t hint_[kDistricts + 1] = {};
  uint32_t pending_[kDistricts + 1] = {};
};

class Tpcc : public Workload {
 public:
  Tpcc(uint64_t seed, uint32_t workers, bool hybrid)
      : seed_(seed), workers_(workers), hybrid_(hybrid), tallies_(workers) {
    for (Tally& t : tallies_) {
      t.paid.assign(workers + 1, 0);
      t.new_orders.assign((workers + 1) * kDistricts, 0);
    }
  }

  std::vector<std::string> TypeNames() const override {
    std::vector<std::string> names = {"neworder", "payment", "orderstatus",
                                      "delivery", "stocklevel"};
    if (hybrid_) names.push_back("q2star");
    return names;
  }
  ermia::CcScheme Scheme() const override {
    return hybrid_ ? ermia::CcScheme::kSiSsn : ermia::CcScheme::kSi;
  }
  bool SyncCommit() const override { return !hybrid_; }

  void CreateSchema(ermia::Database* db) override {
    auto t = [&](Table** tb, Index** pk, const char* name) {
      *tb = db->CreateTable(name);
      *pk = db->CreateIndex(*tb, std::string(name) + "_pk");
    };
    t(&s_.warehouse, &s_.warehouse_pk, "warehouse");
    t(&s_.district, &s_.district_pk, "district");
    t(&s_.customer, &s_.customer_pk, "customer");
    s_.customer_name = db->CreateIndex(s_.customer, "customer_name");
    t(&s_.history, &s_.history_pk, "history");
    t(&s_.neworder, &s_.neworder_pk, "neworder");
    t(&s_.order, &s_.order_pk, "order");
    s_.order_cust = db->CreateIndex(s_.order, "order_cust");
    t(&s_.orderline, &s_.orderline_pk, "orderline");
    t(&s_.item, &s_.item_pk, "item");
    t(&s_.stock, &s_.stock_pk, "stock");
    if (hybrid_) {
      t(&s_.supplier, &s_.supplier_pk, "supplier");
      t(&s_.nation, &s_.nation_pk, "nation");
      t(&s_.region, &s_.region_pk, "region");
    }
  }

  uint64_t Load(ermia::Database* db) override;

  std::unique_ptr<Client> MakeClient(ermia::Database* db,
                                     uint32_t worker) override {
    return std::make_unique<TpccClient>(this, db, worker);
  }

  std::vector<std::pair<std::string, Digest>> Check(
      ermia::Database* db, std::vector<std::string>* errors) override;

  Status Probe(ermia::Database* db) override {
    Tracer t(0);
    Tx tx(t, db, ermia::CcScheme::kSi, true);
    WarehouseRow w;
    Status s = tx.ReadRow(s_.warehouse_pk, WKey(1), &w);
    if (s.ok()) s = tx.Commit();
    return s;
  }

  bool Corrupt(const std::string& what) override {
    if (what == "payment") {
      tallies_[0].paid[1] += 1;
    } else if (what == "neworder") {
      tallies_[0].new_orders[kDistricts] += 1;  // (w=1, d=1)
    } else if (what == "digest") {
      corrupt_digest_ = true;
    } else {
      return false;
    }
    return true;
  }

  const Schema& schema() const { return s_; }
  bool hybrid() const { return hybrid_; }
  uint32_t warehouses() const { return workers_; }
  Tally& tally(uint32_t worker) { return tallies_[worker]; }

 private:
  void LoadItems(ermia::Database* db, Rng& rng, uint64_t* rows);
  void LoadWarehouse(ermia::Database* db, uint32_t w, uint64_t* rows);
  void LoadHybrid(ermia::Database* db, Rng& rng, uint64_t* rows);

  uint64_t seed_;
  uint32_t workers_;
  bool hybrid_;
  Schema s_;
  std::vector<Tally> tallies_;
  bool corrupt_digest_ = false;
  uint32_t checks_ = 0;
};

// ---- load (TPC-C 4.3.3.1) ---------------------------------------------------

void Tpcc::LoadItems(ermia::Database* db, Rng& rng, uint64_t* rows) {
  Tracer t(0);
  LoadBatch b(db, t);
  for (uint32_t i = 1; i <= kItems; ++i) {
    ItemRow r;
    Zero(&r);
    r.i_price = static_cast<int64_t>(rng.Uniform(100, 10000));
    r.i_im_id = static_cast<int32_t>(rng.Uniform(1, 10000));
    Fill(r.i_name, sizeof r.i_name, rng.Alpha(14, 24));
    std::string data = rng.Alpha(26, 50);
    if (rng.Bernoulli(0.1)) data.replace(data.size() / 2, 8, "ORIGINAL");
    Fill(r.i_data, sizeof r.i_data, data);
    b.Insert(s_.item, s_.item_pk, IKey(i), RowSlice(r));
  }
  b.Finish();
  *rows += b.rows();
}

void Tpcc::LoadHybrid(ermia::Database* db, Rng& rng, uint64_t* rows) {
  Tracer t(0);
  LoadBatch b(db, t);
  for (uint32_t r = 0; r < kRegions; ++r) {
    RegionRow row;
    Zero(&row);
    Fill(row.r_name, sizeof row.r_name, rng.Alpha(6, 25));
    b.Insert(s_.region, s_.region_pk, Key().U32(r), RowSlice(row));
  }
  for (uint32_t n = 0; n < kNations; ++n) {
    NationRow row;
    Zero(&row);
    row.n_regionkey = static_cast<int32_t>(n % kRegions);
    Fill(row.n_name, sizeof row.n_name, rng.Alpha(6, 25));
    b.Insert(s_.nation, s_.nation_pk, Key().U32(n), RowSlice(row));
  }
  for (uint32_t su = 0; su < kSuppliers; ++su) {
    SupplierRow row;
    Zero(&row);
    row.su_nationkey = static_cast<int32_t>(rng.Uniform(0, kNations - 1));
    row.su_acctbal = static_cast<int64_t>(rng.Uniform(0, 1000000));
    Fill(row.su_name, sizeof row.su_name, rng.Alpha(10, 25));
    Fill(row.su_phone, sizeof row.su_phone, rng.Alpha(15, 15));
    b.Insert(s_.supplier, s_.supplier_pk, Key().U32(su), RowSlice(row));
  }
  b.Finish();
  *rows += b.rows();
}

void Tpcc::LoadWarehouse(ermia::Database* db, uint32_t w, uint64_t* rows) {
  Rng rng(seed_, w);
  Tracer t(0);
  LoadBatch b(db, t);

  WarehouseRow wr;
  Zero(&wr);
  wr.w_ytd = kInitialWYtd;
  wr.w_tax_bp = static_cast<int32_t>(rng.Uniform(0, 2000));
  Fill(wr.w_name, sizeof wr.w_name, rng.Alpha(6, 10));
  Fill(wr.w_street_1, sizeof wr.w_street_1, rng.Alpha(10, 20));
  Fill(wr.w_city, sizeof wr.w_city, rng.Alpha(10, 20));
  Fill(wr.w_state, sizeof wr.w_state, rng.Alpha(2, 2));
  Fill(wr.w_zip, sizeof wr.w_zip, "123411111");
  b.Insert(s_.warehouse, s_.warehouse_pk, WKey(w), RowSlice(wr));

  for (uint32_t i = 1; i <= kItems; ++i) {
    StockRow r;
    Zero(&r);
    r.s_quantity = static_cast<int32_t>(rng.Uniform(10, 100));
    for (auto& dist : r.s_dist) Fill(dist, sizeof dist, rng.Alpha(24, 24));
    std::string data = rng.Alpha(26, 50);
    if (rng.Bernoulli(0.1)) data.replace(data.size() / 2, 8, "ORIGINAL");
    Fill(r.s_data, sizeof r.s_data, data);
    b.Insert(s_.stock, s_.stock_pk, SKey(w, i), RowSlice(r));
  }

  for (uint32_t d = 1; d <= kDistricts; ++d) {
    DistrictRow dr;
    Zero(&dr);
    dr.d_ytd = kInitialDYtd;
    dr.d_tax_bp = static_cast<int32_t>(rng.Uniform(0, 2000));
    dr.d_next_o_id = static_cast<int32_t>(kInitialOrders + 1);
    Fill(dr.d_name, sizeof dr.d_name, rng.Alpha(6, 10));
    Fill(dr.d_street_1, sizeof dr.d_street_1, rng.Alpha(10, 20));
    Fill(dr.d_city, sizeof dr.d_city, rng.Alpha(10, 20));
    Fill(dr.d_state, sizeof dr.d_state, rng.Alpha(2, 2));
    Fill(dr.d_zip, sizeof dr.d_zip, "123411111");
    b.Insert(s_.district, s_.district_pk, DKey(w, d), RowSlice(dr));

    for (uint32_t c = 1; c <= kCustomers; ++c) {
      CustomerRow cr;
      Zero(&cr);
      cr.c_credit_lim = 5000000;
      cr.c_balance = -1000;
      cr.c_ytd_payment = 1000;
      cr.c_discount_bp = static_cast<int32_t>(rng.Uniform(0, 5000));
      cr.c_payment_cnt = 1;
      Fill(cr.c_first, sizeof cr.c_first, rng.Alpha(8, 16));
      Fill(cr.c_middle, sizeof cr.c_middle, "OE");
      const uint32_t last_num =
          c <= 1000 ? c - 1
                    : static_cast<uint32_t>(rng.NURand(255, 0, 999, kCLastLoad));
      Fill(cr.c_last, sizeof cr.c_last, LastName(last_num));
      Fill(cr.c_street_1, sizeof cr.c_street_1, rng.Alpha(10, 20));
      Fill(cr.c_city, sizeof cr.c_city, rng.Alpha(10, 20));
      Fill(cr.c_state, sizeof cr.c_state, rng.Alpha(2, 2));
      Fill(cr.c_zip, sizeof cr.c_zip, "123411111");
      Fill(cr.c_phone, sizeof cr.c_phone, rng.Alpha(16, 16));
      Fill(cr.c_credit, sizeof cr.c_credit, rng.Bernoulli(0.1) ? "BC" : "GC");
      Fill(cr.c_data, sizeof cr.c_data, rng.Alpha(300, 500));
      const Key name = CNameKey(w, d, cr.c_last, cr.c_first, c);
      b.Insert(s_.customer, s_.customer_pk, CKey(w, d, c), RowSlice(cr),
               s_.customer_name, &name);

      HistoryRow hr;
      Zero(&hr);
      hr.h_amount = 1000;
      hr.h_c_id = static_cast<int32_t>(c);
      hr.h_c_d_id = hr.h_d_id = static_cast<int32_t>(d);
      hr.h_c_w_id = hr.h_w_id = static_cast<int32_t>(w);
      Fill(hr.h_data, sizeof hr.h_data, rng.Alpha(12, 24));
      b.Insert(s_.history, s_.history_pk, HKey(w, (d - 1) * kCustomers + c),
               RowSlice(hr));
    }

    // Orders: customer ids are a random permutation of 1..3000.
    std::vector<uint32_t> perm(kInitialOrders);
    for (uint32_t i = 0; i < kInitialOrders; ++i) perm[i] = i + 1;
    for (uint32_t i = kInitialOrders - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.Uniform(0, i)]);
    }
    for (uint32_t o = 1; o <= kInitialOrders; ++o) {
      const bool delivered = o < kFirstNewOrder;
      OrderRow orow;
      Zero(&orow);
      orow.o_c_id = static_cast<int32_t>(perm[o - 1]);
      orow.o_carrier_id =
          delivered ? static_cast<int32_t>(rng.Uniform(1, 10)) : 0;
      orow.o_ol_cnt = static_cast<int32_t>(rng.Uniform(5, 15));
      orow.o_all_local = 1;
      orow.o_entry_d = o;
      const Key ock = OCustKey(w, d, perm[o - 1], o);
      b.Insert(s_.order, s_.order_pk, OKey(w, d, o), RowSlice(orow),
               s_.order_cust, &ock);
      for (int32_t ol = 1; ol <= orow.o_ol_cnt; ++ol) {
        OrderLineRow lr;
        Zero(&lr);
        lr.ol_i_id = static_cast<int32_t>(rng.Uniform(1, kItems));
        lr.ol_supply_w_id = static_cast<int32_t>(w);
        lr.ol_quantity = 5;
        lr.ol_amount =
            delivered ? 0 : static_cast<int64_t>(rng.Uniform(1, 999999));
        lr.ol_delivery_d = delivered ? o : 0;
        Fill(lr.ol_dist_info, sizeof lr.ol_dist_info, rng.Alpha(24, 24));
        b.Insert(s_.orderline, s_.orderline_pk,
                 OlKey(w, d, o, static_cast<uint32_t>(ol)), RowSlice(lr));
      }
      if (!delivered) {
        NewOrderRow nr;
        Zero(&nr);
        nr.no_o_id = static_cast<int32_t>(o);
        b.Insert(s_.neworder, s_.neworder_pk, OKey(w, d, o), RowSlice(nr));
      }
    }
  }
  b.Finish();
  *rows += b.rows();
}

uint64_t Tpcc::Load(ermia::Database* db) {
  // One loader per warehouse; the first also loads the shared tables.
  std::vector<uint64_t> rows(workers_, 0);
  std::vector<std::thread> loaders;
  for (uint32_t w = 1; w <= workers_; ++w) {
    loaders.emplace_back([this, db, w, &rows] {
      if (w == 1) {
        Rng rng(seed_, 0);
        LoadItems(db, rng, &rows[0]);
        if (hybrid_) LoadHybrid(db, rng, &rows[0]);
      }
      LoadWarehouse(db, w, &rows[w - 1]);
      ermia::ThreadRegistry::Deregister();
    });
  }
  for (auto& t : loaders) t.join();
  uint64_t total = 0;
  for (uint64_t r : rows) total += r;
  return total;
}

// ---- requests (TPC-C 2.4-2.8, TPC-CH Q2*) -----------------------------------

TpccClient::TpccClient(Tpcc* wl, ermia::Database* db, uint32_t worker)
    : wl_(wl),
      db_(db),
      s_(wl->schema()),
      scheme_(wl->Scheme()),
      worker_(worker),
      home_(worker + 1),
      warehouses_(wl->warehouses()),
      tally_(wl->tally(worker)) {
  lines_.reserve(15);
}

void TpccClient::PickCustomer(Rng& rng, CustomerPick* p) {
  p->by_name = rng.Bernoulli(0.6);
  p->c_id = static_cast<uint32_t>(rng.NURand(1023, 1, kCustomers, kCId));
  Zero(&p->last);
  Fill(p->last, sizeof p->last,
       LastName(static_cast<uint32_t>(rng.NURand(255, 0, 999, kCLastRun))));
}

uint32_t TpccClient::Prepare(Rng& rng) {
  const uint64_t x = rng.Uniform(1, 100);
  // tpcc: 45/43/4/4/4; tpcc-hybrid: 40/38/4/4/4 + 10% Q2*.
  const bool hybrid = wl_->hybrid();
  const uint64_t no = hybrid ? 40 : 45, pay = hybrid ? 78 : 88;
  if (x <= no) {
    type_ = kNewOrder;
  } else if (x <= pay) {
    type_ = kPayment;
  } else if (x <= pay + 4) {
    type_ = kOrderStatus;
  } else if (x <= pay + 8) {
    type_ = kDelivery;
  } else if (x <= pay + 12) {
    type_ = kStockLevel;
  } else {
    type_ = kQ2Star;
  }
  ++seq_;
  d_ = static_cast<uint32_t>(rng.Uniform(1, kDistricts));
  switch (type_) {
    case kNewOrder: {
      no_c_ = static_cast<uint32_t>(rng.NURand(1023, 1, kCustomers, kCId));
      const uint32_t n = static_cast<uint32_t>(rng.Uniform(5, 15));
      rollback_ = rng.Bernoulli(0.01);
      lines_.clear();
      while (lines_.size() < n) {
        // Distinct items per order, so no stock row is updated twice.
        const uint32_t i =
            static_cast<uint32_t>(rng.NURand(8191, 1, kItems, kOlIId));
        bool dup = false;
        for (const Line& l : lines_) dup |= l.i_id == i;
        if (dup) continue;
        uint32_t sw = home_;
        if (warehouses_ > 1 && rng.Bernoulli(0.01)) {
          do {
            sw = static_cast<uint32_t>(rng.Uniform(1, warehouses_));
          } while (sw == home_);
        }
        lines_.push_back(
            Line{i, sw, static_cast<int32_t>(rng.Uniform(1, 10))});
      }
      // The spec's 1% rollback: the last item number is unused.
      if (rollback_) lines_.back().i_id = kItems + 1;
      break;
    }
    case kPayment:
      c_w_ = home_;
      c_d_ = d_;
      if (warehouses_ > 1 && rng.Bernoulli(0.15)) {
        do {
          c_w_ = static_cast<uint32_t>(rng.Uniform(1, warehouses_));
        } while (c_w_ == home_);
        c_d_ = static_cast<uint32_t>(rng.Uniform(1, kDistricts));
      }
      PickCustomer(rng, &cust_);
      amount_ = static_cast<int64_t>(rng.Uniform(100, 500000));
      break;
    case kOrderStatus:
      PickCustomer(rng, &cust_);
      break;
    case kDelivery:
      carrier_ = static_cast<uint32_t>(rng.Uniform(1, 10));
      break;
    case kStockLevel:
      threshold_ = static_cast<int32_t>(rng.Uniform(10, 20));
      break;
    case kQ2Star:
      region_ = static_cast<uint32_t>(rng.Uniform(0, kRegions - 1));
      threshold_ = static_cast<int32_t>(rng.Uniform(10, 20));
      break;
  }
  return type_;
}

Outcome TpccClient::Attempt(Tracer& t) {
  switch (type_) {
    case kNewOrder:
      return NewOrder(t);
    case kPayment:
      return Payment(t);
    case kOrderStatus:
      return OrderStatus(t);
    case kDelivery:
      return Delivery(t);
    case kStockLevel:
      return StockLevel(t);
    default:
      return Q2Star(t);
  }
}

#define EB_TRY(expr)                        \
  do {                                      \
    const ::ermia::Status _s = (expr);      \
    if (!_s.ok()) return Classify(_s);      \
  } while (0)

// 60% by last name (the middle match, ordered by first name), else by id
// (TPC-C 2.5.2.2, 2.6.2.2).
Status TpccClient::SelectCustomer(Tx& tx, uint32_t w, uint32_t d,
                                  const CustomerPick& p, CustomerRow* row,
                                  Oid* oid, uint32_t* c_id) {
  if (!p.by_name) {
    *c_id = p.c_id;
    return tx.ReadRow(s_.customer_pk, CKey(w, d, p.c_id), row, oid);
  }
  const Key lo = Key().U32(w).U32(d).Str(p.last, 16);
  const Key hi = Key().U32(w).U32(d).Str(p.last, 16).U32(UINT32_MAX).U32(
      UINT32_MAX).U32(UINT32_MAX).U32(UINT32_MAX).U32(UINT32_MAX);
  std::vector<std::pair<Oid, uint32_t>> matches;
  Status s = tx.ScanOids(s_.customer_name, lo, hi, -1,
                         [&](const Slice& key, Oid o) {
                           matches.push_back(
                               {o, DecodeU32(key.data() + key.size() - 4)});
                           return true;
                         });
  if (!s.ok()) return s;
  if (matches.empty()) return Status::NotFound("no customer by last name");
  const auto& [o, id] = matches[(matches.size() - 1) / 2];
  *c_id = id;
  return tx.ReadOid(s_.customer, o, row, oid);
}

Outcome TpccClient::NewOrder(Tracer& t) {
  const uint32_t w = home_, d = d_;
  Tx tx(t, db_, scheme_, false);
  WarehouseRow wr;
  EB_TRY(tx.ReadRow(s_.warehouse_pk, WKey(w), &wr));
  CustomerRow cr;
  EB_TRY(tx.ReadRow(s_.customer_pk, CKey(w, d, no_c_), &cr));
  DistrictRow dr;
  Oid d_oid = 0;
  EB_TRY(tx.ReadRow(s_.district_pk, DKey(w, d), &dr, &d_oid));
  const uint32_t o_id = static_cast<uint32_t>(dr.d_next_o_id);
  dr.d_next_o_id++;
  EB_TRY(tx.Update(s_.district, d_oid, RowSlice(dr)));

  bool all_local = true;
  for (const Line& l : lines_) all_local &= l.supply_w == w;
  OrderRow orow;
  Zero(&orow);
  orow.o_c_id = static_cast<int32_t>(no_c_);
  orow.o_ol_cnt = static_cast<int32_t>(lines_.size());
  orow.o_all_local = all_local ? 1 : 0;
  orow.o_entry_d = seq_;
  Oid o_oid = 0;
  EB_TRY(tx.Insert(s_.order, s_.order_pk, OKey(w, d, o_id), RowSlice(orow),
                   &o_oid));
  EB_TRY(tx.InsertIndexEntry(s_.order_cust, OCustKey(w, d, no_c_, o_id), o_oid));
  NewOrderRow nr;
  Zero(&nr);
  nr.no_o_id = static_cast<int32_t>(o_id);
  EB_TRY(tx.Insert(s_.neworder, s_.neworder_pk, OKey(w, d, o_id), RowSlice(nr)));

  for (uint32_t n = 0; n < lines_.size(); ++n) {
    const Line& l = lines_[n];
    ItemRow ir;
    const Status is = tx.ReadRow(s_.item_pk, IKey(l.i_id), &ir);
    if (is.IsNotFound() && rollback_) {
      tx.Abort();  // the intended rollback: a completed request
      return Outcome::kRolledBack;
    }
    EB_TRY(is);
    StockRow sr;
    Oid s_oid = 0;
    EB_TRY(tx.ReadRow(s_.stock_pk, SKey(l.supply_w, l.i_id), &sr, &s_oid));
    sr.s_quantity = sr.s_quantity - l.qty >= 10 ? sr.s_quantity - l.qty
                                                : sr.s_quantity - l.qty + 91;
    sr.s_ytd += l.qty;
    sr.s_order_cnt++;
    if (l.supply_w != w) sr.s_remote_cnt++;
    EB_TRY(tx.Update(s_.stock, s_oid, RowSlice(sr)));

    OrderLineRow lr;
    Zero(&lr);
    lr.ol_i_id = static_cast<int32_t>(l.i_id);
    lr.ol_supply_w_id = static_cast<int32_t>(l.supply_w);
    lr.ol_quantity = l.qty;
    lr.ol_amount = l.qty * ir.i_price;
    std::memcpy(lr.ol_dist_info, sr.s_dist[d - 1], sizeof lr.ol_dist_info);
    EB_TRY(tx.Insert(s_.orderline, s_.orderline_pk, OlKey(w, d, o_id, n + 1),
                     RowSlice(lr)));
  }
  EB_TRY(tx.Commit());
  tally_.new_orders[w * kDistricts + d - 1]++;
  return Outcome::kCommitted;
}

Outcome TpccClient::Payment(Tracer& t) {
  const uint32_t w = home_, d = d_;
  Tx tx(t, db_, scheme_, false);
  WarehouseRow wr;
  Oid w_oid = 0;
  EB_TRY(tx.ReadRow(s_.warehouse_pk, WKey(w), &wr, &w_oid));
  wr.w_ytd += amount_;
  EB_TRY(tx.Update(s_.warehouse, w_oid, RowSlice(wr)));
  DistrictRow dr;
  Oid d_oid = 0;
  EB_TRY(tx.ReadRow(s_.district_pk, DKey(w, d), &dr, &d_oid));
  dr.d_ytd += amount_;
  EB_TRY(tx.Update(s_.district, d_oid, RowSlice(dr)));

  CustomerRow cr;
  Oid c_oid = 0;
  uint32_t c_id = 0;
  EB_TRY(SelectCustomer(tx, c_w_, c_d_, cust_, &cr, &c_oid, &c_id));
  cr.c_balance -= amount_;
  cr.c_ytd_payment += amount_;
  cr.c_payment_cnt++;
  if (std::strncmp(cr.c_credit, "BC", 2) == 0) {
    // Bad credit (2.5.2.2): prepend the payment to c_data, truncated.
    char entry[96];
    const int n = std::snprintf(entry, sizeof entry, "%u %u %u %u %u %lld|",
                                c_id, c_d_, c_w_, d, w,
                                static_cast<long long>(amount_));
    char merged[sizeof cr.c_data];
    std::memcpy(merged, entry, static_cast<size_t>(n));
    std::memcpy(merged + n, cr.c_data, sizeof merged - static_cast<size_t>(n));
    merged[sizeof merged - 1] = '\0';
    std::memcpy(cr.c_data, merged, sizeof cr.c_data);
  }
  EB_TRY(tx.Update(s_.customer, c_oid, RowSlice(cr)));

  HistoryRow hr;
  Zero(&hr);
  hr.h_amount = amount_;
  hr.h_c_id = static_cast<int32_t>(c_id);
  hr.h_c_d_id = static_cast<int32_t>(c_d_);
  hr.h_c_w_id = static_cast<int32_t>(c_w_);
  hr.h_d_id = static_cast<int32_t>(d);
  hr.h_w_id = static_cast<int32_t>(w);
  hr.h_date = seq_;
  std::memcpy(hr.h_data, wr.w_name, sizeof wr.w_name);
  EB_TRY(tx.Insert(s_.history, s_.history_pk,
                   HKey(1000 + worker_, static_cast<uint32_t>(seq_)),
                   RowSlice(hr)));
  EB_TRY(tx.Commit());
  tally_.paid[w] += amount_;
  return Outcome::kCommitted;
}

Outcome TpccClient::OrderStatus(Tracer& t) {
  const uint32_t w = home_, d = d_;
  Tx tx(t, db_, scheme_, true);
  CustomerRow cr;
  Oid c_oid = 0;
  uint32_t c_id = 0;
  EB_TRY(SelectCustomer(tx, w, d, cust_, &cr, &c_oid, &c_id));
  uint32_t o_id = 0;
  EB_TRY(tx.ScanOids(
      s_.order_cust, OCustKey(w, d, c_id, 0), OCustKey(w, d, c_id, UINT32_MAX),
      1,
      [&](const Slice& key, Oid) {
        o_id = DecodeU32(key.data() + 12);
        return false;
      },
      /*reverse=*/true));
  if (o_id != 0) {
    OrderRow orow;
    EB_TRY(tx.ReadRow(s_.order_pk, OKey(w, d, o_id), &orow));
    int64_t total = 0;
    EB_TRY(tx.Scan(s_.orderline_pk, OlKey(w, d, o_id, 0),
                   OlKey(w, d, o_id, UINT32_MAX), -1,
                   [&](const Slice&, const Slice& v) {
                     OrderLineRow lr;
                     if (LoadRow(v, &lr)) total += lr.ol_amount;
                     return true;
                   }));
  }
  EB_TRY(tx.Commit());
  return Outcome::kCommitted;
}

Outcome TpccClient::Delivery(Tracer& t) {
  const uint32_t w = home_;
  Tx tx(t, db_, scheme_, false);
  for (uint32_t d = 1; d <= kDistricts; ++d) {
    uint32_t o_id = 0;
    Oid no_oid = 0;
    EB_TRY(tx.ScanOids(s_.neworder_pk, OKey(w, d, hint_[d]),
                       OKey(w, d, UINT32_MAX), 1,
                       [&](const Slice& key, Oid oid) {
                         o_id = DecodeU32(key.data() + 8);
                         no_oid = oid;
                         return false;
                       }));
    pending_[d] = o_id == 0 ? hint_[d] : o_id + 1;
    if (o_id == 0) continue;  // no undelivered order (2.7.4.2)
    EB_TRY(tx.Delete(s_.neworder, no_oid));
    OrderRow orow;
    Oid o_oid = 0;
    EB_TRY(tx.ReadRow(s_.order_pk, OKey(w, d, o_id), &orow, &o_oid));
    orow.o_carrier_id = static_cast<int32_t>(carrier_);
    EB_TRY(tx.Update(s_.order, o_oid, RowSlice(orow)));

    std::vector<Oid> lines;
    EB_TRY(tx.ScanOids(s_.orderline_pk, OlKey(w, d, o_id, 0),
                       OlKey(w, d, o_id, UINT32_MAX), -1,
                       [&](const Slice&, Oid oid) {
                         lines.push_back(oid);
                         return true;
                       }));
    int64_t total = 0;
    for (Oid oid : lines) {
      OrderLineRow lr;
      EB_TRY(tx.ReadOid(s_.orderline, oid, &lr));
      lr.ol_delivery_d = seq_;
      total += lr.ol_amount;
      EB_TRY(tx.Update(s_.orderline, oid, RowSlice(lr)));
    }
    CustomerRow cr;
    Oid c_oid = 0;
    EB_TRY(tx.ReadRow(s_.customer_pk,
                      CKey(w, d, static_cast<uint32_t>(orow.o_c_id)), &cr,
                      &c_oid));
    cr.c_balance += total;
    cr.c_delivery_cnt++;
    EB_TRY(tx.Update(s_.customer, c_oid, RowSlice(cr)));
  }
  EB_TRY(tx.Commit());
  for (uint32_t d = 1; d <= kDistricts; ++d) hint_[d] = pending_[d];
  return Outcome::kCommitted;
}

Outcome TpccClient::StockLevel(Tracer& t) {
  const uint32_t w = home_, d = d_;
  Tx tx(t, db_, scheme_, true);
  DistrictRow dr;
  EB_TRY(tx.ReadRow(s_.district_pk, DKey(w, d), &dr));
  const uint32_t next = static_cast<uint32_t>(dr.d_next_o_id);
  std::vector<uint32_t> items;
  EB_TRY(tx.Scan(s_.orderline_pk, OlKey(w, d, next - 20, 0),
                 OlKey(w, d, next - 1, UINT32_MAX), -1,
                 [&](const Slice&, const Slice& v) {
                   OrderLineRow lr;
                   if (LoadRow(v, &lr)) {
                     items.push_back(static_cast<uint32_t>(lr.ol_i_id));
                   }
                   return true;
                 }));
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  int low = 0;
  for (uint32_t i : items) {
    StockRow sr;
    EB_TRY(tx.ReadRow(s_.stock_pk, SKey(w, i), &sr));
    if (sr.s_quantity < threshold_) ++low;
  }
  EB_TRY(tx.Commit());
  return Outcome::kCommitted;
}

// TPC-CH Q2*: for a random region, scan the first kQ2Items stock rows of
// every warehouse, keep those whose supplier ((w * i) mod |S|) lies in the
// region, and restock the ones below a threshold.
Outcome TpccClient::Q2Star(Tracer& t) {
  Tx tx(t, db_, scheme_, false);
  std::vector<int8_t> supplier_region(kSuppliers, -1);
  std::vector<int8_t> nation_region(kNations, -1);
  std::vector<std::pair<uint32_t, Oid>> rows;
  rows.reserve(kQ2Items);
  for (uint32_t w = 1; w <= warehouses_; ++w) {
    rows.clear();
    EB_TRY(tx.ScanOids(s_.stock_pk, SKey(w, 1), SKey(w, kQ2Items), -1,
                       [&](const Slice& key, Oid oid) {
                         rows.push_back({DecodeU32(key.data() + 4), oid});
                         return true;
                       }));
    for (const auto& [i, oid] : rows) {
      const uint32_t su = (w * i) % kSuppliers;
      if (supplier_region[su] < 0) {
        SupplierRow sr;
        EB_TRY(tx.ReadRow(s_.supplier_pk, Key().U32(su), &sr));
        const uint32_t n = static_cast<uint32_t>(sr.su_nationkey);
        if (nation_region[n] < 0) {
          NationRow nr;
          EB_TRY(tx.ReadRow(s_.nation_pk, Key().U32(n), &nr));
          nation_region[n] = static_cast<int8_t>(nr.n_regionkey);
        }
        supplier_region[su] = nation_region[n];
      }
      if (static_cast<uint32_t>(supplier_region[su]) != region_) continue;
      StockRow st;
      EB_TRY(tx.ReadOid(s_.stock, oid, &st));
      if (st.s_quantity >= threshold_) continue;
      ItemRow ir;
      EB_TRY(tx.ReadRow(s_.item_pk, IKey(i), &ir));
      st.s_quantity += 50;
      EB_TRY(tx.Update(s_.stock, oid, RowSlice(st)));
    }
  }
  EB_TRY(tx.Commit());
  return Outcome::kCommitted;
}

#undef EB_TRY

// ---- checks (TPC-C 3.3.2.1-3.3.2.4 + client tallies + digests) ---------------

std::vector<std::pair<std::string, Digest>> Tpcc::Check(
    ermia::Database* db, std::vector<std::string>* errors) {
  const uint32_t W = workers_;
  auto err = [&](const std::string& m) { errors->push_back(m); };
  auto wd = [](uint32_t w, uint32_t d) { return w * kDistricts + d - 1; };
  const size_t nwd = (W + 1) * kDistricts;

  std::vector<int64_t> w_ytd(W + 1, 0), d_ytd_sum(W + 1, 0);
  std::vector<int64_t> next_o(nwd, 0), max_o(nwd, 0), ol_cnt_sum(nwd, 0);
  std::vector<int64_t> ol_rows(nwd, 0), no_min(nwd, INT64_MAX), no_max(nwd, 0),
      no_rows(nwd, 0);
  std::vector<std::pair<std::string, Digest>> digests;

  Tracer t(0);
  Tx tx(t, db, ermia::CcScheme::kSi, true);
  auto scan = [&](const char* name, Index* pk,
                  const std::function<void(const Slice&, const Slice&)>& f) {
    Digest dg;
    const Status s = tx.Scan(pk, Key().U32(0), Key(), -1,
                             [&](const Slice& k, const Slice& v) {
                               dg.Add(k, v);
                               if (f) f(k, v);
                               return true;
                             });
    if (!s.ok()) err(Cat("scan ", name, ": ", s.ToString()));
    digests.push_back({name, dg});
  };
  auto key_u32 = [](const Slice& k, size_t i) {
    return DecodeU32(k.data() + 4 * i);
  };

  scan("warehouse", s_.warehouse_pk, [&](const Slice& k, const Slice& v) {
    WarehouseRow r;
    if (LoadRow(v, &r) && key_u32(k, 0) <= W) w_ytd[key_u32(k, 0)] = r.w_ytd;
  });
  scan("district", s_.district_pk, [&](const Slice& k, const Slice& v) {
    DistrictRow r;
    const uint32_t w = key_u32(k, 0), d = key_u32(k, 1);
    if (!LoadRow(v, &r) || w > W || d > kDistricts) return;
    d_ytd_sum[w] += r.d_ytd;
    next_o[wd(w, d)] = r.d_next_o_id;
  });
  scan("customer", s_.customer_pk, nullptr);
  scan("history", s_.history_pk, nullptr);
  scan("neworder", s_.neworder_pk, [&](const Slice& k, const Slice&) {
    const uint32_t w = key_u32(k, 0), d = key_u32(k, 1);
    const int64_t o = key_u32(k, 2);
    if (w > W || d > kDistricts) return;
    const size_t i = wd(w, d);
    no_min[i] = std::min(no_min[i], o);
    no_max[i] = std::max(no_max[i], o);
    no_rows[i]++;
  });
  scan("order", s_.order_pk, [&](const Slice& k, const Slice& v) {
    OrderRow r;
    const uint32_t w = key_u32(k, 0), d = key_u32(k, 1);
    if (!LoadRow(v, &r) || w > W || d > kDistricts) return;
    const size_t i = wd(w, d);
    max_o[i] = std::max<int64_t>(max_o[i], key_u32(k, 2));
    ol_cnt_sum[i] += r.o_ol_cnt;
  });
  scan("orderline", s_.orderline_pk, [&](const Slice& k, const Slice&) {
    const uint32_t w = key_u32(k, 0), d = key_u32(k, 1);
    if (w <= W && d <= kDistricts) ol_rows[wd(w, d)]++;
  });
  scan("item", s_.item_pk, nullptr);
  scan("stock", s_.stock_pk, nullptr);
  if (hybrid_) {
    scan("supplier", s_.supplier_pk, nullptr);
    scan("nation", s_.nation_pk, nullptr);
    scan("region", s_.region_pk, nullptr);
  }
  const Status cs = tx.Commit();
  if (!cs.ok()) err(Cat("check commit: ", cs.ToString()));

  for (uint32_t w = 1; w <= W; ++w) {
    if (w_ytd[w] != d_ytd_sum[w]) {
      err(Cat("3.3.2.1 w", w, ": W_YTD ", w_ytd[w], " != sum(D_YTD) ",
              d_ytd_sum[w]));
    }
    int64_t paid = 0;
    for (const Tally& tl : tallies_) paid += tl.paid[w];
    if (w_ytd[w] - kInitialWYtd != paid) {
      err(Cat("tally w", w, ": W_YTD grew by ", w_ytd[w] - kInitialWYtd,
              " but committed payments sum to ", paid));
    }
    for (uint32_t d = 1; d <= kDistricts; ++d) {
      const size_t i = wd(w, d);
      if (next_o[i] - 1 != max_o[i] ||
          (no_rows[i] > 0 && no_max[i] != max_o[i])) {
        err(Cat("3.3.2.2 w", w, "d", d, ": D_NEXT_O_ID-1=", next_o[i] - 1,
                " max(O_ID)=", max_o[i], " max(NO_O_ID)=", no_max[i]));
      }
      if (no_rows[i] > 0 && no_max[i] - no_min[i] + 1 != no_rows[i]) {
        err(Cat("3.3.2.3 w", w, "d", d, ": NEW-ORDER rows ", no_rows[i],
                " != max-min+1 ", no_max[i] - no_min[i] + 1));
      }
      if (ol_cnt_sum[i] != ol_rows[i]) {
        err(Cat("3.3.2.4 w", w, "d", d, ": sum(O_OL_CNT) ", ol_cnt_sum[i],
                " != ORDER-LINE rows ", ol_rows[i]));
      }
      uint64_t placed = 0;
      for (const Tally& tl : tallies_) placed += tl.new_orders[i];
      const int64_t grew = next_o[i] - int64_t{kInitialOrders + 1};
      if (grew != static_cast<int64_t>(placed)) {
        err(Cat("tally w", w, "d", d, ": D_NEXT_O_ID grew by ", grew,
                " but committed NewOrders number ", placed));
      }
    }
  }
  if (corrupt_digest_ && checks_ == 0) digests[0].second.sum += 1;
  ++checks_;
  return digests;
}

}  // namespace

std::unique_ptr<Workload> MakeTpcc(uint64_t seed, uint32_t workers,
                                   bool hybrid) {
  return std::make_unique<Tpcc>(seed, workers, hybrid);
}

}  // namespace ebench
