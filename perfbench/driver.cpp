/**
 * @file
 * Benchmark driver: runs one workload against MioDB through the public
 * KVStore facade, checks every result against a model of acknowledged
 * writes, and prints either the end-to-end metrics or, in a traced run,
 * the per-layer metrics. All measurement is taken from outside the
 * store: each public call is timed here, and the store's own counters
 * (stats(), NvmDevice::meters(), MioDB gauges) are read at phase
 * boundaries. README.md documents every workload and metric.
 *
 * Usage (run.py builds this binary and forwards its flags):
 *   perfbench_driver --workload=<fillrandom|ycsb_c|ycsb_a|ycsb_e>
 *       --seed=<n> --seconds=<n> --trace=<0|1> [--preload=<n>]
 *       [--inject=<value|version|row>] [--trace-out=<path>]
 *
 * The last line of stdout is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * Exit status: 0 when every check passed, 1 when a check failed, 2 on
 * a usage error (no result printed).
 */
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchutil/store_factory.h"
#include "miodb/miodb.h"
#include "sched/background_scheduler.h"
#include "util/random.h"
#include "util/zipfian.h"

using namespace mio;

namespace {

// ---------------------------------------------------------------------
// Command line (strict: unknown flags and malformed values are errors)
// ---------------------------------------------------------------------

enum class Workload { kFillRandom, kYcsbC, kYcsbA, kYcsbE };

/** Self-test fault injected into the first checked result. */
enum class Inject { kNone, kValue, kVersion, kRow };

struct Args {
    Workload workload = Workload::kFillRandom;
    std::string workload_name;
    uint64_t seed = 0;
    uint64_t seconds = 0;
    bool trace = false;
    uint64_t preload = 300000;
    Inject inject = Inject::kNone;
    std::string trace_out;
};

[[noreturn]] void
usageError(const std::string &msg)
{
    fprintf(stderr, "perfbench_driver: %s\n", msg.c_str());
    exit(2);
}

uint64_t
parseUint(const std::string &name, const std::string &text, uint64_t lo,
          uint64_t hi)
{
    uint64_t v = 0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (text.empty() || ec != std::errc() || ptr != end)
        usageError("--" + name + " needs a whole number, got '" + text +
                   "'");
    if (v < lo || v > hi)
        usageError("--" + name + " must be in [" + std::to_string(lo) +
                   ", " + std::to_string(hi) + "], got " + text);
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    std::map<std::string, std::string> seen;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        size_t eq = arg.find('=');
        if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
            usageError("expected --name=value, got '" + arg + "'");
        std::string name = arg.substr(2, eq - 2);
        if (!seen.emplace(name, arg.substr(eq + 1)).second)
            usageError("--" + name + " given twice");
    }
    auto take = [&](const std::string &name, bool required) {
        auto it = seen.find(name);
        if (it == seen.end()) {
            if (required)
                usageError("missing --" + name);
            return std::string();
        }
        std::string v = it->second;
        seen.erase(it);
        return v;
    };

    a.workload_name = take("workload", true);
    static const std::map<std::string, Workload> kWorkloads = {
        {"fillrandom", Workload::kFillRandom},
        {"ycsb_c", Workload::kYcsbC},
        {"ycsb_a", Workload::kYcsbA},
        {"ycsb_e", Workload::kYcsbE},
    };
    auto w = kWorkloads.find(a.workload_name);
    if (w == kWorkloads.end())
        usageError("unknown workload '" + a.workload_name + "'");
    a.workload = w->second;
    a.seed = parseUint("seed", take("seed", true), 0, UINT32_MAX);
    a.seconds = parseUint("seconds", take("seconds", true), 1, 600);
    a.trace = parseUint("trace", take("trace", true), 0, 1) == 1;
    std::string preload = take("preload", false);
    if (!preload.empty())
        a.preload = parseUint("preload", preload, 1000, 10000000);
    std::string inject = take("inject", false);
    if (inject == "value")
        a.inject = Inject::kValue;
    else if (inject == "version")
        a.inject = Inject::kVersion;
    else if (inject == "row")
        a.inject = Inject::kRow;
    else if (!inject.empty())
        usageError("unknown --inject '" + inject + "'");
    a.trace_out = take("trace-out", false);
    if (!seen.empty())
        usageError("unknown flag --" + seen.begin()->first);
    return a;
}

// ---------------------------------------------------------------------
// Keys and self-describing values
// ---------------------------------------------------------------------

constexpr size_t kKeyLen = 16;  //!< makeKey's default width
constexpr size_t kMinValue = 128;
constexpr size_t kMaxValue = 1024;
/** "<key>|<version:10>|<length:4>|" ahead of the derived body. */
constexpr size_t kHeaderLen = kKeyLen + 1 + 10 + 1 + 4 + 1;

uint64_t
mix64(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Uniform in [kMinValue, kMaxValue], fixed by (key, version). */
size_t
valueLength(uint64_t key, uint32_t version)
{
    return kMinValue +
           mix64(key * 0x9e3779b97f4a7c15ULL + version) %
               (kMaxValue - kMinValue + 1);
}

/** The body is a Weyl sequence of 8-byte words from this seed. */
uint64_t
bodySeed(uint64_t key, uint32_t version, size_t len)
{
    return mix64(key ^ (uint64_t{version} << 32) ^ (len << 20));
}

constexpr uint64_t kBodyStep = 0x9e3779b97f4a7c15ULL;

void
putDigits(char *dst, uint64_t v, int width)
{
    for (int p = width - 1; p >= 0; p--) {
        dst[p] = static_cast<char>('0' + v % 10);
        v /= 10;
    }
}

/** The bytes makeKey(i) produces, without a heap allocation. */
struct KeyText {
    explicit KeyText(uint64_t i) { putDigits(buf, i, kKeyLen); }
    Slice slice() const { return Slice(buf, kKeyLen); }
    char buf[kKeyLen];
};

bool
parseDigits(const char *src, int width, uint64_t *v)
{
    uint64_t x = 0;
    for (int p = 0; p < width; p++) {
        if (src[p] < '0' || src[p] > '9')
            return false;
        x = x * 10 + static_cast<uint64_t>(src[p] - '0');
    }
    *v = x;
    return true;
}

void
encodeValue(uint64_t key, uint32_t version, std::string *out)
{
    size_t len = valueLength(key, version);
    out->resize(len);
    char *p = out->data();
    putDigits(p, key, kKeyLen);
    p[kKeyLen] = '|';
    putDigits(p + kKeyLen + 1, version, 10);
    p[kKeyLen + 11] = '|';
    putDigits(p + kKeyLen + 12, len, 4);
    p[kHeaderLen - 1] = '|';
    uint64_t w = bodySeed(key, version, len);
    size_t off = kHeaderLen;
    for (; off + 8 <= len; off += 8, w += kBodyStep)
        memcpy(p + off, &w, 8);
    memcpy(p + off, &w, len - off);
}

/**
 * True when @p v is exactly the value encodeValue wrote for @p key at
 * the version it names; that version goes to @p version.
 */
bool
decodeValue(uint64_t key, const std::string &v, uint32_t *version)
{
    if (v.size() < kHeaderLen || v[kKeyLen] != '|' ||
        v[kKeyLen + 11] != '|' || v[kHeaderLen - 1] != '|')
        return false;
    uint64_t k = 0, ver = 0, len = 0;
    if (!parseDigits(v.data(), kKeyLen, &k) || k != key ||
        !parseDigits(v.data() + kKeyLen + 1, 10, &ver) ||
        ver == 0 || ver > UINT32_MAX ||
        !parseDigits(v.data() + kKeyLen + 12, 4, &len) ||
        len != v.size() ||
        len != valueLength(key, static_cast<uint32_t>(ver)))
        return false;
    uint64_t w = bodySeed(key, static_cast<uint32_t>(ver), len);
    size_t off = kHeaderLen;
    uint64_t diff = 0;
    for (; off + 8 <= len; off += 8, w += kBodyStep) {
        uint64_t got;
        memcpy(&got, v.data() + off, 8);
        diff |= got ^ w;
    }
    if (diff != 0 || memcmp(v.data() + off, &w, len - off) != 0)
        return false;
    *version = static_cast<uint32_t>(ver);
    return true;
}

bool
decodeKey(const std::string &k, uint64_t *index)
{
    return k.size() == kKeyLen && parseDigits(k.data(), kKeyLen, index);
}

// ---------------------------------------------------------------------
// Model of issued and acknowledged writes
// ---------------------------------------------------------------------

constexpr int kMaxClients = 2;

/** Per-client inserts acknowledged, captured before a scan. */
struct InsertView {
    uint64_t acked[kMaxClients] = {};
};

/**
 * Per key: the highest version handed to a writer and the highest
 * version whose put was acknowledged. Every key has a single writer
 * (ycsb_a deals update keys to clients by parity), so version order is
 * commit order and a get must see at least the version acknowledged
 * before it began; two overlapping puts of one key could commit in
 * either order. Inserted keys are dealt to clients disjointly: client
 * c's j-th insert is preload + j*clients + c.
 */
class Model
{
  public:
    Model(uint64_t preload, int clients)
        : preload_(preload), clients_(clients),
          capacity_(2 * preload + 65536),
          keys_(new KeyState[capacity_])
    {
        for (uint64_t i = 0; i < capacity_; i++) {
            keys_[i].issued.store(0, std::memory_order_relaxed);
            keys_[i].acked.store(0, std::memory_order_relaxed);
        }
    }

    uint64_t preload() const { return preload_; }

    uint32_t
    nextVersion(uint64_t key)
    {
        return keys_[key].issued.fetch_add(1, std::memory_order_acq_rel) + 1;
    }

    void
    ack(uint64_t key, uint32_t version)
    {
        uint32_t cur = keys_[key].acked.load(std::memory_order_relaxed);
        while (cur < version &&
               !keys_[key].acked.compare_exchange_weak(
                   cur, version, std::memory_order_acq_rel)) {
        }
    }

    uint32_t
    acked(uint64_t key) const
    {
        return key < capacity_
                   ? keys_[key].acked.load(std::memory_order_acquire)
                   : 0;
    }

    uint32_t
    issued(uint64_t key) const
    {
        return key < capacity_
                   ? keys_[key].issued.load(std::memory_order_acquire)
                   : 0;
    }

    /** Key of client @p c's @p j-th insert; capacity_ when out of room. */
    uint64_t
    insertKey(int c, uint64_t j) const
    {
        uint64_t k = preload_ + j * clients_ + static_cast<uint64_t>(c);
        return k < capacity_ ? k : capacity_;
    }

    bool roomFor(uint64_t key) const { return key < capacity_; }

    void
    ackInsert(int c, uint64_t j)
    {
        inserts_[c].store(j + 1, std::memory_order_release);
    }

    InsertView
    insertView() const
    {
        InsertView v;
        for (uint64_t c = 0; c < clients_; c++)
            v.acked[c] = inserts_[c].load(std::memory_order_acquire);
        return v;
    }

    /** Whether @p key was acknowledged by the time @p v was taken. */
    bool
    existed(uint64_t key, const InsertView &v) const
    {
        if (key < preload_)
            return true;
        uint64_t off = key - preload_;
        return off / clients_ < v.acked[off % clients_];
    }

    /** Largest key index acknowledged by the time @p v was taken. */
    uint64_t
    maxExisting(const InsertView &v) const
    {
        uint64_t m = preload_ - 1;
        for (uint64_t c = 0; c < clients_; c++) {
            if (v.acked[c] > 0)
                m = std::max(m, insertKey(static_cast<int>(c), v.acked[c] - 1));
        }
        return m;
    }

    /** Key and value bytes of the newest acknowledged versions. */
    uint64_t
    liveBytes(const InsertView &v) const
    {
        uint64_t total = 0;
        uint64_t last = maxExisting(v);
        for (uint64_t k = 0; k <= last; k++) {
            uint32_t ver = acked(k);
            if (ver > 0)
                total += kKeyLen + valueLength(k, ver);
        }
        return total;
    }

  private:
    uint64_t preload_;
    uint64_t clients_;
    uint64_t capacity_;
    /** One key's state, together so a check touches one cache line. */
    struct KeyState {
        std::atomic<uint32_t> issued;
        std::atomic<uint32_t> acked;
    };
    std::unique_ptr<KeyState[]> keys_;
    std::atomic<uint64_t> inserts_[kMaxClients]{};
};

// ---------------------------------------------------------------------
// Result checks
// ---------------------------------------------------------------------

using Rows = std::vector<std::pair<std::string, std::string>>;

/** Checks results against the Model; records the first failure seen. */
class Checker
{
  public:
    Checker(const Model &model, Inject inject)
        : model_(model), inject_(inject),
          pending_(inject != Inject::kNone)
    {}

    /**
     * A get of @p key returned @p s / @p value; @p acked_before is the
     * key's acknowledged version read before the get was issued.
     */
    bool
    checkGet(uint64_t key, const Status &s, const std::string &value,
             uint32_t acked_before)
    {
        if (s.isNotFound())
            return fail("get " + std::to_string(key) +
                        ": NotFound for a loaded key");
        if (!s.isOk())
            return fail("get " + std::to_string(key) + ": " +
                        s.toString());
        return checkValue(key, value, acked_before,
                          model_.issued(key));
    }

    /**
     * A scan of up to @p count rows from @p start returned @p rows;
     * @p before is the insert view taken before the scan was issued.
     * @p quiescent: no writer ran during the scan, so every version
     * must equal the acknowledged one exactly.
     */
    bool
    checkScan(uint64_t start, int count, const Status &s, Rows *rows,
              const InsertView &before, bool quiescent)
    {
        if (!s.isOk())
            return fail("scan " + std::to_string(start) + ": " +
                        s.toString());
        if (rows->size() > static_cast<size_t>(count))
            return fail("scan returned more rows than asked");
        if (rows->size() >= 3 && takeInjection(Inject::kRow))
            rows->erase(rows->begin() + 1);
        // Keys above this one had not been acknowledged at scan start.
        const uint64_t last = model_.maxExisting(before);
        uint64_t next = start;  // smallest key the next row may have
        for (const auto &[k, v] : *rows) {
            uint64_t idx = 0;
            if (!decodeKey(k, &idx))
                return fail("scan returned malformed key '" + k + "'");
            if (idx < next)
                return fail("scan keys not ascending or below start at " +
                            std::to_string(idx));
            for (uint64_t g = next; g < std::min(idx, last + 1); g++) {
                if (model_.existed(g, before))
                    return fail("scan from " + std::to_string(start) +
                                " skipped key " + std::to_string(g));
            }
            uint32_t lo = 1, hi = model_.issued(idx);
            if (quiescent)
                lo = hi = model_.acked(idx);
            if (!checkValue(idx, v, lo, hi))
                return false;
            next = idx + 1;
        }
        if (rows->size() < static_cast<size_t>(count) && last >= next)
            return fail("scan from " + std::to_string(start) +
                        " stopped short while keys remain");
        return true;
    }

    uint64_t failures() const { return failures_.load(); }

    std::string
    firstFailure() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return first_;
    }

  private:
    bool
    checkValue(uint64_t key, const std::string &value, uint32_t lo,
               uint32_t hi)
    {
        uint32_t version = 0;
        bool ok;
        if (takeInjection(Inject::kValue)) {
            std::string bad = value;
            bad[bad.size() - 1] ^= 0x5a;
            ok = decodeValue(key, bad, &version);
        } else {
            ok = decodeValue(key, value, &version);
        }
        if (!ok)
            return fail("key " + std::to_string(key) +
                        ": value does not match its key/version/length");
        if (takeInjection(Inject::kVersion))
            lo = version + 1;
        if (version < lo)
            return fail("key " + std::to_string(key) + ": version " +
                        std::to_string(version) +
                        " older than acknowledged " + std::to_string(lo));
        if (version > hi)
            return fail("key " + std::to_string(key) + ": version " +
                        std::to_string(version) + " never written");
        return true;
    }

    bool
    takeInjection(Inject kind)
    {
        return inject_ == kind && pending_.exchange(false);
    }

    bool
    fail(const std::string &why)
    {
        if (failures_.fetch_add(1) == 0) {
            std::lock_guard<std::mutex> lock(mu_);
            first_ = why;
        }
        return false;
    }

    const Model &model_;
    Inject inject_;
    std::atomic<bool> pending_;
    std::atomic<uint64_t> failures_{0};
    mutable std::mutex mu_;
    std::string first_;  //!< guarded by mu_
};

// ---------------------------------------------------------------------
// Timing and tracing
// ---------------------------------------------------------------------

uint64_t
nowNs()
{
    static const auto kStart = std::chrono::steady_clock::now();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - kStart)
            .count());
}

enum OpKind : uint8_t { kPut = 0, kGet = 1, kScan = 2, kNumOpKinds = 3 };
const char *const kOpNames[kNumOpKinds] = {"kv.put", "kv.get", "kv.scan"};

/** One public call, child of a phase span; (client, op) is its id. */
struct CallSpan {
    uint64_t start_ns;
    uint32_t dur_ns;
    uint32_t op;
    uint32_t phase;
    uint8_t kind;
    uint8_t client;
};

struct PhaseSpan {
    uint32_t id;
    uint32_t parent;
    std::string name;
    uint64_t start_ns;
    uint64_t end_ns;
};

/** What client threads measured in a phase; merged across clients. */
struct Tally {
    std::vector<uint32_t> lat_ns[kNumOpKinds];
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t scan_rows = 0;
    uint64_t user_bytes = 0;  //!< key+value bytes of acknowledged puts
    uint64_t gen_ns = 0;
    uint64_t verify_ns = 0;
    uint64_t trace_ns = 0;
    uint64_t loop_ns = 0;
    std::vector<CallSpan> spans;

    void
    add(Tally &&o)
    {
        for (int k = 0; k < kNumOpKinds; k++)
            lat_ns[k].insert(lat_ns[k].end(), o.lat_ns[k].begin(),
                             o.lat_ns[k].end());
        attempted += o.attempted;
        failed += o.failed;
        scan_rows += o.scan_rows;
        user_bytes += o.user_bytes;
        gen_ns += o.gen_ns;
        verify_ns += o.verify_ns;
        trace_ns += o.trace_ns;
        loop_ns += o.loop_ns;
        spans.insert(spans.end(), o.spans.begin(), o.spans.end());
    }

    uint64_t
    ops() const
    {
        return lat_ns[kPut].size() + lat_ns[kGet].size() +
               lat_ns[kScan].size();
    }
};

/** Nearest-rank percentile in microseconds; 0 for no samples. */
double
percentileUs(std::vector<uint32_t> &ns, double p)
{
    if (ns.empty())
        return 0.0;
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * ns.size()));
    rank = std::clamp<size_t>(rank, 1, ns.size()) - 1;
    std::nth_element(ns.begin(), ns.begin() + rank, ns.end());
    return ns[rank] / 1000.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

// ---------------------------------------------------------------------
// Workload driving
// ---------------------------------------------------------------------

/** What a client does in one phase. */
struct OpPlan {
    Workload workload;
    /** Insert exactly these keys (load phases and fillrandom). */
    const std::vector<uint32_t> *order = nullptr;
    /** Otherwise issue this many ops per client, or if 0 run until: */
    uint64_t ops = 0;
    uint64_t deadline_ns = 0;
    uint32_t phase = 0;
    uint64_t seed = 0;
    bool trace = false;
};

/** One closed-loop client: issue, wait for the reply, check, repeat. */
void
runClient(KVStore &store, Model &model, Checker &checker,
          const OpPlan &plan, int client, Tally *r)
{
    Random rng(mix64(plan.seed * 1000003 + client + 1));
    std::optional<ScrambledZipfianGenerator> zipf;
    if (!plan.order) {
        zipf.emplace(model.preload(), ZipfianGenerator::kDefaultTheta,
                     mix64(plan.seed + 17 * client + 5));
    }
    const bool inserting = plan.workload == Workload::kYcsbE;
    std::string value;
    Rows rows;
    uint64_t inserts = 0;
    const uint64_t loop_start = nowNs();
    uint64_t t0 = loop_start;

    for (uint64_t op = 0;; op++) {
        if (plan.order  ? op >= plan.order->size()
            : plan.ops ? op >= plan.ops
                       : t0 >= plan.deadline_ns)
            break;
        // Generate the op.
        OpKind kind = kGet;
        uint64_t key = 0;
        uint32_t version = 0;
        int scan_len = 0;
        if (plan.order) {
            kind = kPut;
            key = (*plan.order)[op];
        } else if (plan.workload == Workload::kYcsbC) {
            key = zipf->next();
        } else if (plan.workload == Workload::kYcsbA) {
            kind = rng.uniform(2) ? kPut : kGet;
            key = zipf->next();
            if (kind == kPut) {
                // Client c updates only keys of parity c: one writer
                // per key. Subtracting 2 keeps the parity in range.
                key = (key & ~uint64_t{1}) | static_cast<uint64_t>(client);
                if (key >= model.preload())
                    key -= 2;
            }
        } else if (rng.uniform(100) < 5) {
            kind = kPut;
            key = model.insertKey(client, inserts);
            if (!model.roomFor(key)) {
                fprintf(stderr, "perfbench_driver: insert keys "
                                "exhausted\n");
                r->attempted++;
                r->failed++;
                break;
            }
        } else {
            kind = kScan;
            key = zipf->next();
            scan_len = 1 + static_cast<int>(rng.uniform(100));
        }
        if (kind == kPut) {
            version = model.nextVersion(key);
            encodeValue(key, version, &value);
        }
        const KeyText key_text(key);
        const uint32_t acked_before = kind == kGet ? model.acked(key) : 0;
        const InsertView view =
            kind == kScan ? model.insertView() : InsertView{};

        // Issue it and wait for the reply.
        const uint64_t t1 = nowNs();
        Status s;
        if (kind == kPut)
            s = store.put(key_text.slice(), Slice(value));
        else if (kind == kGet)
            s = store.get(key_text.slice(), &value);
        else
            s = store.scan(key_text.slice(), scan_len, &rows);
        const uint64_t t2 = nowNs();

        // Check it.
        bool ok;
        if (kind == kPut) {
            ok = s.isOk();
            if (ok) {
                model.ack(key, version);
                r->user_bytes += kKeyLen + value.size();
                if (inserting && !plan.order)
                    model.ackInsert(client, inserts++);
            }
        } else if (kind == kGet) {
            ok = checker.checkGet(key, s, value, acked_before);
        } else {
            ok = checker.checkScan(key, scan_len, s, &rows, view, false);
            r->scan_rows += rows.size();
        }
        const uint64_t t3 = nowNs();

        const uint32_t lat =
            static_cast<uint32_t>(std::min<uint64_t>(t2 - t1, UINT32_MAX));
        r->attempted++;
        r->failed += ok ? 0 : 1;
        r->lat_ns[kind].push_back(lat);
        r->gen_ns += t1 - t0;
        r->verify_ns += t3 - t2;
        t0 = t3;
        if (plan.trace) {
            r->spans.push_back(CallSpan{t1, lat, static_cast<uint32_t>(op),
                                        plan.phase,
                                        static_cast<uint8_t>(kind),
                                        static_cast<uint8_t>(client)});
            t0 = nowNs();
            r->trace_ns += t0 - t3;
        }
    }
    r->loop_ns = t0 - loop_start;
}

/** Store counters read at one phase boundary. */
struct Counters {
    StatsSnapshot stats;
    sim::NvmMeters nvm;
};

Counters
readCounters(const bench::StoreBundle &bundle)
{
    return Counters{snapshotOf(bundle.store->stats()),
                    bundle.nvm->meters()};
}

/** Peak resident set of this process so far (VmHWM), in MiB. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

/** What one round -- one store, from build to teardown -- measured. */
struct RoundResult {
    double setup_s = 0;
    double run_s = 0;
    double drain_s = 0;
    Counters after_setup, after_run, after_drain;
    uint64_t life_user_bytes = 0;  //!< load + run acknowledged bytes
    uint64_t run_user_bytes = 0;
    uint64_t live_bytes = 0;
    uint64_t elastic_bytes = 0;
    uint64_t ops = 0;       //!< timed-phase calls
    double peak_rss_mb = 0; //!< process peak up to this round's end
};

/** A metric as printed: name, value, unit. */
struct Metric {
    std::string name;
    double value;
    std::string unit;
};

class Driver
{
  public:
    explicit Driver(const Args &args) : args_(args) {}

    /** Runs every round, prints the result; returns the exit status. */
    int run();

  private:
    int
    clients() const
    {
        return args_.workload == Workload::kFillRandom ? 1 : kMaxClients;
    }

    uint32_t openPhase(const std::string &name, uint32_t parent);
    void closePhase(uint32_t id, const bench::StoreBundle &bundle);
    Tally runPhase(KVStore &store, Model &model, Checker &checker,
                   const OpPlan &plan, int clients);
    void finalCheck(const bench::StoreBundle &bundle, const Model &model,
                    Checker &checker, uint32_t round_phase);
    RoundResult runRound(int round, uint64_t slice_ns);
    std::vector<Metric> endToEnd();
    std::vector<Metric> perLayer();
    void writeTrace() const;

    const Args &args_;
    std::vector<uint32_t> order_;  //!< this round's shuffled insert order
    std::vector<RoundResult> rounds_;
    std::vector<double> setup_samples_;
    Tally run_;  //!< timed phases of every round
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<std::string> failures_;
    std::vector<PhaseSpan> phases_;
    std::vector<CallSpan> spans_;
    std::vector<std::pair<uint32_t, Counters>> boundaries_;
};

uint32_t
Driver::openPhase(const std::string &name, uint32_t parent)
{
    uint32_t id = static_cast<uint32_t>(phases_.size()) + 1;
    phases_.push_back(PhaseSpan{id, parent, name, nowNs(), 0});
    return id;
}

void
Driver::closePhase(uint32_t id, const bench::StoreBundle &bundle)
{
    phases_[id - 1].end_ns = nowNs();
    boundaries_.emplace_back(id, readCounters(bundle));
}

Tally
Driver::runPhase(KVStore &store, Model &model, Checker &checker,
                 const OpPlan &plan, int clients)
{
    std::vector<Tally> results(clients);
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; c++) {
        threads.emplace_back(runClient, std::ref(store), std::ref(model),
                             std::ref(checker), std::cref(plan), c,
                             &results[c]);
    }
    for (auto &t : threads)
        t.join();
    Tally t;
    for (auto &r : results)
        t.add(std::move(r));
    spans_.insert(spans_.end(), t.spans.begin(), t.spans.end());
    t.spans.clear();
    attempted_ += t.attempted;
    failed_ += t.failed;
    return t;
}

/**
 * After the final drain, one full ascending scan must return every
 * acknowledged key at exactly its acknowledged version, and the
 * store's memory ledger and snapshot pins must balance.
 */
void
Driver::finalCheck(const bench::StoreBundle &bundle, const Model &model,
                   Checker &checker, uint32_t round_phase)
{
    uint32_t id = openPhase("verify", round_phase);
    constexpr int kChunk = 1000;
    const InsertView view = model.insertView();
    const uint64_t last = model.maxExisting(view);
    Rows rows;
    for (uint64_t start = 0; start <= last;) {
        Status s =
            bundle.store->scan(KeyText(start).slice(), kChunk, &rows);
        attempted_++;
        if (!checker.checkScan(start, kChunk, s, &rows, view, true)) {
            failed_++;
            break;
        }
        if (rows.size() < static_cast<size_t>(kChunk))
            break;
        uint64_t idx = 0;
        decodeKey(rows.back().first, &idx);
        start = idx + 1;
    }
    auto *db = dynamic_cast<miodb::MioDB *>(bundle.store.get());
    attempted_ += 2;
    if (!db->memoryAccountingConsistent()) {
        failed_++;
        failures_.push_back("memoryAccountingConsistent() is false");
    }
    uint64_t pins = snapshotOf(bundle.store->stats()).snapshots_live;
    if (pins != 0) {
        failed_++;
        failures_.push_back("snapshots_live == " + std::to_string(pins));
    }
    closePhase(id, bundle);
}

bench::BenchConfig
storeConfig()
{
    // BenchConfig defaults (8 levels, 16 bloom bits/key, group commit,
    // 512 B value-log threshold, Optane perf model) with three changes.
    bench::BenchConfig c;
    c.store = "miodb";
    c.memtable_size = 128u << 10;
    c.read_cache_bytes = 8u << 20;
    // The tuner is timer-driven; it would make runs unrepeatable.
    c.adaptive_memory = false;
    return c;
}

RoundResult
Driver::runRound(int round, uint64_t slice_ns)
{
    RoundResult rr;
    const bool fill = args_.workload == Workload::kFillRandom;

    const uint32_t round_phase =
        openPhase("round" + std::to_string(round), 0);
    Model model(args_.preload, clients());
    Checker checker(model, args_.inject);

    // Set-up: the round's inputs and the store; for the YCSB workloads
    // also the load and its drain. A store build alone takes well under
    // a millisecond, too little to time steadily on a shared host.
    uint64_t t = nowNs();
    uint32_t id = openPhase("setup.input", round_phase);
    // The insert order of the load phase (and fillrandom's timed phase):
    // all preload keys, shuffled by the seed and the round. The order
    // fixes how the keys end up spread over the levels; a new order per
    // round keeps one layout from setting a whole run's speed.
    order_.resize(args_.preload);
    for (uint64_t i = 0; i < args_.preload; i++)
        order_[i] = static_cast<uint32_t>(i);
    Random shuffle(mix64(args_.seed) + static_cast<uint64_t>(round));
    for (uint64_t i = args_.preload - 1; i > 0; i--)
        std::swap(order_[i], order_[shuffle.uniform(i + 1)]);
    phases_[id - 1].end_ns = nowNs();
    id = openPhase("setup.build", round_phase);
    bench::StoreBundle bundle = bench::makeStore(storeConfig());
    KVStore &store = *bundle.store;
    closePhase(id, bundle);
    if (!fill) {
        id = openPhase("setup.load", round_phase);
        OpPlan load{args_.workload, &order_, 0, 0, id, args_.seed,
                    args_.trace};
        rr.life_user_bytes =
            runPhase(store, model, checker, load, 1).user_bytes;
        closePhase(id, bundle);
        id = openPhase("setup.drain", round_phase);
        store.waitIdle();
        closePhase(id, bundle);
    }
    rr.setup_s = (nowNs() - t) / 1e9;
    setup_samples_.push_back(rr.setup_s);
    rr.after_setup = readCounters(bundle);

    // Timed phase: fillrandom inserts every key once; ycsb_a issues as
    // many ops as there are keys; ycsb_c and ycsb_e run their mix until
    // the round's slice is used up.
    t = nowNs();
    id = openPhase("run", round_phase);
    const uint64_t ops = args_.workload == Workload::kYcsbA
                             ? args_.preload / kMaxClients
                             : 0;
    OpPlan plan{args_.workload, fill ? &order_ : nullptr, ops,
                t + slice_ns, id,
                mix64(args_.seed) + static_cast<uint64_t>(round),
                args_.trace};
    Tally rt = runPhase(store, model, checker, plan, clients());
    closePhase(id, bundle);
    rr.run_s = (nowNs() - t) / 1e9;
    rr.after_run = readCounters(bundle);
    rr.run_user_bytes = rt.user_bytes;
    rr.life_user_bytes += rt.user_bytes;
    rr.ops = rt.ops();
    run_.add(std::move(rt));

    // Background work the timed phase left behind.
    t = nowNs();
    id = openPhase("drain", round_phase);
    store.waitIdle();
    closePhase(id, bundle);
    rr.drain_s = (nowNs() - t) / 1e9;
    rr.after_drain = readCounters(bundle);
    rr.elastic_bytes = dynamic_cast<miodb::MioDB &>(store)
                           .elasticBufferBytes();
    rr.live_bytes = model.liveBytes(model.insertView());

    finalCheck(bundle, model, checker, round_phase);
    rr.peak_rss_mb = peakRssMb();
    if (checker.failures() > 0)
        failures_.push_back(checker.firstFailure());
    phases_[round_phase - 1].end_ns = nowNs();
    return rr;
}

std::vector<Metric>
Driver::endToEnd()
{
    std::vector<double> space, throughput;
    double nvm_written = 0, user = 0;
    for (const RoundResult &r : rounds_) {
        space.push_back(
            ratio(r.after_drain.nvm.peak_allocated, r.live_bytes));
        throughput.push_back(ratio(r.ops, r.run_s + r.drain_s));
        nvm_written += r.after_drain.nvm.bytes_written;
        user += r.life_user_bytes;
    }
    std::vector<uint32_t> all;
    for (auto &lat : run_.lat_ns)
        all.insert(all.end(), lat.begin(), lat.end());
    return {
        {"setup_s", median(setup_samples_), "s"},
        {"ops_per_s", median(throughput), "1/s"},
        {"op_p50_us", percentileUs(all, 50), "us"},
        {"op_p99_us", percentileUs(all, 99), "us"},
        {"nvm_write_amp", ratio(nvm_written, user), "ratio"},
        {"nvm_space_amp", median(space), "ratio"},
        // Later rounds reuse the freed heap unevenly; the first
        // round's peak is one store's whole life and repeats well.
        {"peak_rss_mb", rounds_.front().peak_rss_mb, "MiB"},
    };
}

std::vector<Metric>
Driver::perLayer()
{
    // Counter deltas over each round's timed phase plus its drain,
    // summed over rounds; counts are reported per round.
    StatsSnapshot d;
    double nvm_read = 0, nvm_written = 0, persists = 0, peak = 0;
    double user = 0, drain = 0, run_s = 0, elastic = 0;
    double gov_mem = 0, gov_cache = 0;
    std::vector<double> drains;
    for (const RoundResult &r : rounds_) {
        statsAdd(&d, statsDelta(r.after_drain.stats, r.after_setup.stats));
        nvm_read += r.after_drain.nvm.bytes_read -
                    r.after_setup.nvm.bytes_read;
        nvm_written += r.after_drain.nvm.bytes_written -
                       r.after_setup.nvm.bytes_written;
        persists += r.after_drain.nvm.persist_ops -
                    r.after_setup.nvm.persist_ops;
        peak += r.after_drain.nvm.peak_allocated;
        user += r.run_user_bytes;
        drains.push_back(r.drain_s);
        drain += r.drain_s;
        run_s += r.run_s;
        elastic += r.elastic_bytes;
        gov_mem += r.after_run.stats.gov_memtable_bytes;
        gov_cache += r.after_run.stats.gov_cache_bytes;
    }
    const double n = static_cast<double>(rounds_.size());
    const double mb = 1024.0 * 1024.0;
    const double puts = run_.lat_ns[kPut].size();
    const double gets = run_.lat_ns[kGet].size();
    const double scans = run_.lat_ns[kScan].size();
    const double rows = run_.scan_rows;
    double scan_ns = 0;
    for (uint32_t ns : run_.lat_ns[kScan])
        scan_ns += ns;

    std::vector<Metric> m = {
        {"kv.put.calls", puts, "count"},
        {"kv.get.calls", gets, "count"},
        {"kv.scan.calls", scans, "count"},
        {"kv.put.p50_us", percentileUs(run_.lat_ns[kPut], 50), "us"},
        {"kv.put.p99_us", percentileUs(run_.lat_ns[kPut], 99), "us"},
        {"kv.put.p999_us", percentileUs(run_.lat_ns[kPut], 99.9), "us"},
        {"kv.get.p50_us", percentileUs(run_.lat_ns[kGet], 50), "us"},
        {"kv.get.p99_us", percentileUs(run_.lat_ns[kGet], 99), "us"},
        {"kv.get.p999_us", percentileUs(run_.lat_ns[kGet], 99.9), "us"},
        {"kv.scan.p50_us", percentileUs(run_.lat_ns[kScan], 50), "us"},
        {"kv.scan.p99_us", percentileUs(run_.lat_ns[kScan], 99), "us"},
        {"kv.scan.rows_per_call", ratio(rows, scans), "rows"},
        {"kv.scan.us_per_row", ratio(scan_ns / 1000.0, rows), "us"},
        {"kv.run_ops_per_s", ratio(run_.ops(), run_s), "1/s"},
        {"kv.drain_s", median(drains), "s"},
        {"kv.ops_failed_frac", ratio(failed_, attempted_), "ratio"},
        {"harness.gen_ns_per_op", ratio(run_.gen_ns, run_.ops()), "ns"},
        {"harness.verify_ns_per_op", ratio(run_.verify_ns, run_.ops()),
         "ns"},
        {"miodb.group.writers_per_group",
         ratio(d.group_writers, d.groups_committed), "ratio"},
        {"miodb.group.wal_appends_saved", d.wal_appends_saved / n,
         "count"},
        {"wal.bytes_per_user_byte", ratio(d.wal_bytes_written, user),
         "ratio"},
        {"miodb.stall.interval_ms", d.interval_stall_ns / 1e6 / n, "ms"},
        {"miodb.stall.cumulative_ms", d.cumulative_stall_ns / 1e6 / n,
         "ms"},
        {"miodb.stall.write_stalls", d.write_stalls / n, "count"},
        {"miodb.stall.busy_rejections", d.busy_rejections / n, "count"},
        {"miodb.flush.count", d.flush_count / n, "count"},
        {"miodb.flush.mb", d.flushed_bytes / mb / n, "MiB"},
        {"miodb.zcm.count", d.zero_copy_merges / n, "count"},
        {"miodb.lcm.count", d.lazy_copy_merges / n, "count"},
        {"miodb.storage_bytes_per_user_byte",
         ratio(d.storage_bytes_written, user), "ratio"},
    };
    static const std::pair<const char *, sched::JobClass> kJobs[] = {
        {"flush", sched::JobClass::kFlush},
        {"zcm", sched::JobClass::kZeroCopyMerge},
        {"lcm", sched::JobClass::kLazyCopyMerge},
        {"walrec", sched::JobClass::kWalRecycle},
        {"vloggc", sched::JobClass::kVlogGc},
    };
    for (const auto &[name, cls] : kJobs) {
        int c = static_cast<int>(cls);
        m.push_back({std::string("sched.") + name + ".run_ms",
                     d.sched_run_ns[c] / 1e6 / n, "ms"});
        m.push_back({std::string("sched.") + name + ".queue_ms",
                     d.sched_queue_ns[c] / 1e6 / n, "ms"});
    }
    std::vector<Metric> rest = {
        {"miodb.buffer.elastic_mb", elastic / mb / n, "MiB"},
        {"miodb.vlog.bytes_per_user_byte",
         ratio(d.vlog_appended_bytes, user), "ratio"},
        {"miodb.vlog.gc_passes", d.vlog_gc_passes / n, "count"},
        {"miodb.vlog.gc_relocated_mb", d.vlog_gc_relocated_bytes / mb / n,
         "MiB"},
        {"miodb.vlog.derefs_per_get",
         scans > 0 ? 0.0 : ratio(d.vlog_deref_reads, gets), "ratio"},
        {"miodb.vlog.derefs_per_scan_row",
         gets > 0 ? 0.0 : ratio(d.vlog_deref_reads, rows), "ratio"},
        {"bloom.summary_skips_per_get", ratio(d.bloom_summary_skips, gets),
         "ratio"},
        {"bloom.filter_skips_per_get", ratio(d.bloom_filter_skips, gets),
         "ratio"},
        {"miodb.read.retries_per_get", ratio(d.read_retries, gets),
         "ratio"},
        {"mem.cache.hit_ratio",
         ratio(d.cache_hits, d.cache_hits + d.cache_misses), "ratio"},
        {"mem.cache.evictions", d.cache_evictions / n, "count"},
        {"mem.cache.invalidations", d.cache_invalidations / n, "count"},
        {"mem.gov.memtable_mb", gov_mem / mb / n, "MiB"},
        {"mem.gov.cache_mb", gov_cache / mb / n, "MiB"},
        {"sim.nvm.bytes_read_per_get", ratio(nvm_read, gets), "B"},
        {"sim.nvm.bytes_read_per_scan_row", ratio(nvm_read, rows), "B"},
        {"sim.nvm.persist_ops_per_put", ratio(persists, puts), "ratio"},
        {"sim.nvm.bytes_written_per_user_byte", ratio(nvm_written, user),
         "ratio"},
        {"sim.nvm.peak_alloc_mb", peak / mb / n, "MiB"},
        {"trace.overhead_frac", ratio(run_.trace_ns, run_.loop_ns),
         "ratio"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
}

/** Spans and counter snapshots as CSV, written once the run is over. */
void
Driver::writeTrace() const
{
    FILE *f = fopen(args_.trace_out.c_str(), "w");
    if (!f) {
        fprintf(stderr, "perfbench_driver: cannot write %s\n",
                args_.trace_out.c_str());
        return;
    }
    fprintf(f, "# phase,id,parent,name,start_ns,end_ns\n"
               "# call,phase,name,client,op,start_ns,end_ns\n"
               "# counters,phase,puts,gets,scans,flushes,zcm,lcm,"
               "nvm_bytes_written,nvm_bytes_read,cache_hits,"
               "cache_misses\n");
    for (const PhaseSpan &p : phases_) {
        fprintf(f, "phase,%u,%u,%s,%llu,%llu\n", p.id, p.parent,
                p.name.c_str(), static_cast<unsigned long long>(p.start_ns),
                static_cast<unsigned long long>(p.end_ns));
    }
    for (const CallSpan &s : spans_) {
        fprintf(f, "call,%u,%s,%u,%u,%llu,%llu\n", s.phase,
                kOpNames[s.kind], s.client, s.op,
                static_cast<unsigned long long>(s.start_ns),
                static_cast<unsigned long long>(s.start_ns + s.dur_ns));
    }
    for (const auto &[phase, c] : boundaries_) {
        fprintf(f, "counters,%u,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
                   "%llu,%llu\n",
                phase, static_cast<unsigned long long>(c.stats.puts),
                static_cast<unsigned long long>(c.stats.gets),
                static_cast<unsigned long long>(c.stats.scans),
                static_cast<unsigned long long>(c.stats.flush_count),
                static_cast<unsigned long long>(c.stats.zero_copy_merges),
                static_cast<unsigned long long>(c.stats.lazy_copy_merges),
                static_cast<unsigned long long>(c.nvm.bytes_written),
                static_cast<unsigned long long>(c.nvm.bytes_read),
                static_cast<unsigned long long>(c.stats.cache_hits),
                static_cast<unsigned long long>(c.stats.cache_misses));
    }
    fclose(f);
}

std::string
jsonNumber(double v)
{
    char buf[64];
    snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

int
Driver::run()
{
    const uint64_t budget_ns = args_.seconds * 1000000000ULL;
    if (args_.workload == Workload::kFillRandom ||
        args_.workload == Workload::kYcsbA) {
        // Fixed-size rounds, repeated until the measured time is used.
        // Where the timed phase leaves background work, a fixed-time
        // round would let a faster foreground also leave more work for
        // its drain, which makes rounds differ far more.
        constexpr int kMaxRounds = 100;
        double measured_s = 0;
        while (rounds_.empty() ||
               (measured_s * 1e9 < budget_ns &&
                rounds_.size() < kMaxRounds)) {
            rounds_.push_back(runRound(rounds_.size(), 0));
            measured_s += rounds_.back().run_s + rounds_.back().drain_s;
        }
    } else {
        // Three stores per run: set-up is measured three times and none
        // is wasted, as the timed budget is split between them.
        constexpr int kRounds = 3;
        for (int i = 0; i < kRounds; i++)
            rounds_.push_back(runRound(i, budget_ns / kRounds));
    }

    for (size_t i = 0; i < rounds_.size(); i++) {
        const RoundResult &r = rounds_[i];
        StatsSnapshot d =
            statsDelta(r.after_drain.stats, r.after_setup.stats);
        printf("round %zu: setup %.3f s, run %.3f s, drain %.3f s, "
               "%.0f ops/s, flush/zcm/lcm %llu/%llu/%llu\n",
               i, r.setup_s, r.run_s, r.drain_s,
               ratio(r.ops, r.run_s + r.drain_s),
               static_cast<unsigned long long>(d.flush_count),
               static_cast<unsigned long long>(d.zero_copy_merges),
               static_cast<unsigned long long>(d.lazy_copy_merges));
    }
    for (const std::string &f : failures_)
        fprintf(stderr, "perfbench_driver: check failed: %s\n", f.c_str());

    std::vector<Metric> e2e = endToEnd();
    std::vector<Metric> layer = perLayer();
    printf("end-to-end (%s):\n", args_.trace ? "traced run" : "untraced");
    for (const Metric &m : e2e)
        printf("  %-36s %16.4f %s\n", m.name.c_str(), m.value,
               m.unit.c_str());
    printf("per-layer (%s):\n", args_.trace ? "traced run" : "untraced");
    for (const Metric &m : layer)
        printf("  %-36s %16.4f %s\n", m.name.c_str(), m.value,
               m.unit.c_str());
    if (args_.trace && !args_.trace_out.empty())
        writeTrace();

    const bool correct = failed_ == 0 && failures_.empty();
    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted_) +
                       ", \"failed\": " +
                       std::to_string(std::max<uint64_t>(
                           failed_, correct ? 0 : 1)) +
                       ", \"metrics\": {";
    const std::vector<Metric> &out = args_.trace ? layer : e2e;
    for (size_t i = 0; i < out.size(); i++) {
        json += (i ? ", " : "") + std::string("\"") + out[i].name +
                "\": {\"value\": " + jsonNumber(out[i].value) +
                ", \"unit\": \"" + out[i].unit + "\"}";
    }
    json += "}}";
    printf("%s\n", json.c_str());
    fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    return Driver(args).run();
}
