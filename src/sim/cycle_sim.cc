#include "sim/cycle_sim.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "common/logging.h"
#include "common/math_utils.h"
#include "common/thread_pool.h"
#include "arch/load_balancer.h"

namespace procrustes {
namespace sim {

using arch::FlowClass;
using arch::LayerShape;
using arch::LayerSparsityProfile;
using arch::LayerTrace;
using arch::MappingKind;
using arch::Operand;
using arch::Phase;
using arch::TileHalves;

Channel
channelFor(FlowClass flow)
{
    switch (flow) {
      case FlowClass::MulticastRows:
      case FlowClass::ReduceRows:
        return Channel::RowBus;
      case FlowClass::MulticastCols:
      case FlowClass::ReduceCols:
        return Channel::ColBus;
      case FlowClass::Broadcast:
      case FlowClass::ReduceAll:
        return Channel::Broadcast;
      case FlowClass::Unicast:
        return Channel::UnicastNet;
    }
    PANIC("unknown flow class");
}

void
SimResult::accumulate(const SimResult &o)
{
    cycles += o.cycles;
    computeCycles += o.computeCycles;
    stallCycles += o.stallCycles;
    macsRetired += o.macsRetired;
    drainCycles += o.drainCycles;
    overlappedDrainCycles += o.overlappedDrainCycles;
    glbConflictCycles += o.glbConflictCycles;
    glbConflicts += o.glbConflicts;
    fifoBackpressureCycles += o.fifoBackpressureCycles;
    dramRefillCycles += o.dramRefillCycles;
    dramStallCycles += o.dramStallCycles;
    if (glbBankReads.size() < o.glbBankReads.size())
        glbBankReads.resize(o.glbBankReads.size(), 0);
    for (size_t i = 0; i < o.glbBankReads.size(); ++i)
        glbBankReads[i] += o.glbBankReads[i];
    if (glbBankWrites.size() < o.glbBankWrites.size())
        glbBankWrites.resize(o.glbBankWrites.size(), 0);
    for (size_t i = 0; i < o.glbBankWrites.size(); ++i)
        glbBankWrites[i] += o.glbBankWrites[i];
}

int64_t
SimResult::totalGlbReads() const
{
    int64_t t = 0;
    for (int64_t r : glbBankReads)
        t += r;
    return t;
}

int64_t
SimResult::totalGlbWrites() const
{
    int64_t t = 0;
    for (int64_t w : glbBankWrites)
        t += w;
    return t;
}

void
validateSimConfig(const SimConfig &cfg)
{
    if (cfg.unicastWordsPerCycle <= 0)
        FATAL("SimConfig::unicastWordsPerCycle must be positive (got " +
              std::to_string(cfg.unicastWordsPerCycle) + ")");
    if (cfg.glbBanks <= 0)
        FATAL("SimConfig::glbBanks must be positive (got " +
              std::to_string(cfg.glbBanks) + ")");
    if (cfg.glbBankPortsPerCycle <= 0)
        FATAL("SimConfig::glbBankPortsPerCycle must be positive (got " +
              std::to_string(cfg.glbBankPortsPerCycle) + ")");
    if (cfg.maxCycles <= 0)
        FATAL("SimConfig::maxCycles must be positive (got " +
              std::to_string(cfg.maxCycles) + ")");
}

size_t
unicastRoundRobin(const std::vector<int64_t> &cap,
                  std::vector<int64_t> &recv, int &budget, size_t cursor)
{
    const size_t n = cap.size();
    if (n == 0)
        return 0;
    size_t idx = cursor < n ? cursor : cursor % n;
    size_t next = idx;
    for (size_t step = 0; step < n && budget > 0; ++step) {
        if (recv[idx] < cap[idx]) {
            ++recv[idx];
            --budget;
            next = idx + 1 == n ? 0 : idx + 1;
        }
        if (++idx == n)
            idx = 0;
    }
    return next;
}

bool
operator==(const TileDemand &a, const TileDemand &b)
{
    return a.macs == b.macs && a.wordsA == b.wordsA &&
           a.wordsB == b.wordsB && a.psumWords == b.psumWords;
}

bool
operator==(const WaveSpec &a, const WaveSpec &b)
{
    return a.rows == b.rows && a.cols == b.cols &&
           a.channelA == b.channelA && a.channelB == b.channelB &&
           a.channelOut == b.channelOut && a.tiles == b.tiles;
}

namespace {

/**
 * How far a busy PE has consumed one operand. Word w of an operand
 * unlocks MACs up to w * macs / words, and the PE's queue holds at
 * most `depth` words past its consumed point ceil(done * words / macs).
 * That point moves only when a MAC retires: it advances by words / macs
 * per MAC, and `slack` = consumed * macs - done * words (always in
 * [0, macs)) carries the fraction, so the cycle loop never divides.
 */
struct Consumption
{
    int64_t consumed = 0;
    int64_t slack = 0;
    int64_t step = 0;      //!< words / macs
    int64_t stepRem = 0;   //!< words % macs

    Consumption() = default;
    Consumption(int64_t words, int64_t macs)
        : step(words / macs), stepRem(words % macs)
    {
    }

    /** A MAC retired: advance, and return the operand's new cap. */
    int64_t retire(int64_t words, int64_t macs, int depth)
    {
        consumed += step;
        slack -= stepRem;
        if (slack < 0) {
            ++consumed;
            slack += macs;
        }
        return std::min(words, consumed + depth);
    }
};

/** True if the operand words received so far leave MAC `done` locked. */
bool
blocks(int64_t words, int64_t macs, int64_t done, int64_t recv)
{
    return words > 0 && done * words >= recv * macs;
}

/** A hungry operand at its cap has a delivery withheld. */
bool
backpressured(int64_t words, int64_t recv, int64_t cap)
{
    return recv < words && recv >= cap;
}

/**
 * Deliver one multicast word along each row (or column) with a hungry,
 * non-full PE; every such PE on the line takes it. Returns the number
 * of lines that fired (one GLB word read per fired line).
 */
int64_t
deliverBus(const WaveSpec &wave, const std::vector<int64_t> &cap,
           std::vector<int64_t> &recv, bool row_major)
{
    const auto rows = static_cast<size_t>(wave.rows);
    const auto cols = static_cast<size_t>(wave.cols);
    const size_t lines = row_major ? rows : cols;
    const size_t len = row_major ? cols : rows;
    const size_t line_stride = row_major ? cols : 1;
    const size_t stride = row_major ? 1 : cols;
    int64_t fired = 0;
    for (size_t o = 0; o < lines; ++o) {
        bool any = false;
        size_t idx = o * line_stride;
        for (size_t i = 0; i < len; ++i, idx += stride) {
            if (recv[idx] < cap[idx]) {
                ++recv[idx];
                any = true;
            }
        }
        fired += any ? 1 : 0;
    }
    return fired;
}

/** Deliver one broadcast word to every hungry, non-full PE. */
int64_t
deliverBroadcast(const std::vector<int64_t> &cap,
                 std::vector<int64_t> &recv)
{
    int64_t fired = 0;
    for (size_t idx = 0; idx < cap.size(); ++idx) {
        if (recv[idx] < cap[idx]) {
            ++recv[idx];
            fired = 1;
        }
    }
    return fired;
}

/**
 * Move one operand's words for one cycle; returns words transmitted
 * (= GLB reads). `uni_budget` is the cycle's remaining aggregate
 * unicast bandwidth, shared across operands: when both operands ride
 * the unicast network they split one budget instead of each spending
 * the full configured bandwidth.
 */
int64_t
deliverChannel(const WaveSpec &wave, const std::vector<int64_t> &cap,
               std::vector<int64_t> &recv, Channel ch, int &uni_budget,
               size_t &uni_cursor)
{
    switch (ch) {
      case Channel::RowBus:
        return deliverBus(wave, cap, recv, /*row_major=*/true);
      case Channel::ColBus:
        return deliverBus(wave, cap, recv, /*row_major=*/false);
      case Channel::Broadcast:
        return deliverBroadcast(cap, recv);
      case Channel::UnicastNet: {
        const int before = uni_budget;
        uni_cursor = unicastRoundRobin(cap, recv, uni_budget, uni_cursor);
        return before - uni_budget;
      }
    }
    PANIC("unknown channel");
}

/**
 * Charge `count` consecutive word addresses starting at `start` to
 * banks interleaved word-round-robin: every bank takes count / banks,
 * and the count % banks words left over land on the banks from
 * start % banks on.
 */
void
chargeBanks(std::vector<int64_t> &per_bank, int64_t start, int64_t count)
{
    const auto banks = static_cast<int64_t>(per_bank.size());
    const int64_t each = count / banks;
    for (int64_t &b : per_bank)
        b += each;
    auto bank = static_cast<size_t>(start % banks);
    for (int64_t k = count % banks; k > 0; --k) {
        ++per_bank[bank];
        if (++bank == per_bank.size())
            bank = 0;
    }
}

/**
 * Per-wave facts the double-buffered drain accounting needs beyond
 * SimResult: how much spare GLB write bandwidth the compute window
 * left (reads have priority), and what the wave's own drain costs in
 * serial mode (drain cycles plus the bank-conflict replay cycles the
 * drain's writes caused).
 */
struct WaveSideband
{
    int64_t computeCycles = 0;
    int64_t computeReads = 0;        //!< GLB reads during compute
    int64_t drainWords = 0;          //!< psum words written
    int64_t drainSerialCycles = 0;   //!< drainCycles + drain conflicts
};

SimResult
simulateWaveImpl(const WaveSpec &wave, const SimConfig &cfg,
                 WaveSideband *sb)
{
    PROCRUSTES_ASSERT(
        wave.tiles.size() ==
            static_cast<size_t>(wave.rows) * static_cast<size_t>(wave.cols),
        "tile count mismatch");
    validateSimConfig(cfg);
    SimResult res;
    const int64_t bank_bw =
        static_cast<int64_t>(cfg.glbBanks) * cfg.glbBankPortsPerCycle;
    const int depth = cfg.peFifoDepth;

    // One cycle's GLB accesses beyond the aggregate bank bandwidth
    // replay in appended stall cycles. Which bank each word lands on
    // follows from the rolling address alone (chargeBanks), so the
    // cycle loop only counts words.
    auto chargeConflicts = [&](int64_t words, int64_t times) {
        if (words > bank_bw) {
            res.glbConflicts += (words - bank_bw) * times;
            res.glbConflictCycles += (ceilDiv(words, bank_bw) - 1) * times;
        }
    };

    // Delivery state of every slot: words received, and the most words
    // its queue may hold. An idle or finished PE's cap is its full
    // demand (words > macs can leave a finished PE hungry); a busy
    // PE's cap moves as it retires MACs. Only busy PEs are visited in
    // the MAC loop.
    const size_t n = wave.tiles.size();
    std::vector<int64_t> recv_a(n, 0);
    std::vector<int64_t> recv_b(n, 0);
    std::vector<int64_t> cap_a(n, 0);
    std::vector<int64_t> cap_b(n, 0);
    std::vector<int64_t> done(n, 0);
    std::vector<Consumption> use_a(n);
    std::vector<Consumption> use_b(n);
    std::vector<size_t> busy;
    for (size_t idx = 0; idx < n; ++idx) {
        const TileDemand &d = wave.tiles[idx];
        const bool bounded = depth > 0 && d.macs > 0;
        cap_a[idx] = bounded ? std::min<int64_t>(d.wordsA, depth) : d.wordsA;
        cap_b[idx] = bounded ? std::min<int64_t>(d.wordsB, depth) : d.wordsB;
        if (d.macs > 0) {
            use_a[idx] = Consumption(d.wordsA, d.macs);
            use_b[idx] = Consumption(d.wordsB, d.macs);
            busy.push_back(idx);
            res.macsRetired += d.macs;
        }
    }
    // A hungry PE at its cap has a word withheld by backpressure. The
    // count for a cycle is taken against the caps the previous cycle
    // left, so after the first cycle it folds into the MAC loop.
    for (size_t idx : busy) {
        const TileDemand &d = wave.tiles[idx];
        res.fifoBackpressureCycles +=
            (backpressured(d.wordsA, recv_a[idx], cap_a[idx]) ? 1 : 0) +
            (backpressured(d.wordsB, recv_b[idx], cap_b[idx]) ? 1 : 0);
    }

    size_t uni_cursor = 0;
    int64_t compute_reads = 0;
    while (!busy.empty()) {
        PROCRUSTES_ASSERT(res.computeCycles < cfg.maxCycles,
                          "wave exceeded cycle limit");
        // Delivery happens first; a word arriving this cycle can feed
        // a MAC this cycle (single-cycle forwarding). One unicast
        // budget serves both operands.
        int uni_budget = cfg.unicastWordsPerCycle;
        int64_t words = deliverChannel(wave, cap_a, recv_a, wave.channelA,
                                       uni_budget, uni_cursor);
        words += deliverChannel(wave, cap_b, recv_b, wave.channelB,
                                uni_budget, uni_cursor);
        chargeConflicts(words, 1);
        compute_reads += words;

        size_t kept = 0;
        for (size_t idx : busy) {
            const TileDemand &d = wave.tiles[idx];
            if (blocks(d.wordsA, d.macs, done[idx], recv_a[idx]) ||
                blocks(d.wordsB, d.macs, done[idx], recv_b[idx])) {
                ++res.stallCycles;
            } else {
                if (depth > 0) {
                    cap_a[idx] = use_a[idx].retire(d.wordsA, d.macs, depth);
                    cap_b[idx] = use_b[idx].retire(d.wordsB, d.macs, depth);
                }
                if (++done[idx] == d.macs)
                    continue;   // finished: its cap is now its demand
            }
            if (backpressured(d.wordsA, recv_a[idx], cap_a[idx]))
                ++res.fifoBackpressureCycles;
            if (backpressured(d.wordsB, recv_b[idx], cap_b[idx]))
                ++res.fifoBackpressureCycles;
            busy[kept++] = idx;
        }
        busy.resize(kept);
        ++res.computeCycles;
    }

    // Drain partial sums through the output channel, one bandwidth-
    // limited batch of GLB writes per cycle: full batches, then the
    // remainder. The writes are charged to banks here regardless of
    // drain mode, so the per-bank traffic image is identical in both
    // modes: with double-buffered outputs the sequence layer re-times
    // this drain (hiding it in the next wave's spare GLB write
    // bandwidth) but never re-routes it — see simulateSequencePiece.
    int64_t psum_words = 0;
    for (const TileDemand &d : wave.tiles)
        psum_words += d.psumWords;
    const int64_t pre_drain_conflicts = res.glbConflictCycles;
    int64_t drain_bw = 1;
    switch (wave.channelOut) {
      case Channel::RowBus:
        drain_bw = wave.rows;
        break;
      case Channel::ColBus:
        drain_bw = wave.cols;
        break;
      case Channel::Broadcast:
        drain_bw = 1;
        break;
      case Channel::UnicastNet:
        drain_bw = cfg.unicastWordsPerCycle;
        break;
    }
    drain_bw = std::max<int64_t>(1, drain_bw);
    const int64_t full_batches = psum_words / drain_bw;
    const int64_t last_batch = psum_words % drain_bw;
    res.drainCycles = full_batches + (last_batch > 0 ? 1 : 0);
    chargeConflicts(drain_bw, full_batches);
    chargeConflicts(last_batch, 1);

    res.glbBankReads.assign(static_cast<size_t>(cfg.glbBanks), 0);
    res.glbBankWrites.assign(static_cast<size_t>(cfg.glbBanks), 0);
    chargeBanks(res.glbBankReads, 0, compute_reads);
    chargeBanks(res.glbBankWrites, compute_reads, psum_words);

    res.cycles = res.computeCycles + res.drainCycles + res.glbConflictCycles;
    if (sb != nullptr) {
        sb->computeCycles = res.computeCycles;
        sb->computeReads = compute_reads;
        sb->drainWords = psum_words;
        sb->drainSerialCycles =
            res.drainCycles +
            (res.glbConflictCycles - pre_drain_conflicts);
    }
    return res;
}

/** One clocked wave: its result and its drain-overlap facts. */
struct WaveClock
{
    SimResult result;
    WaveSideband sideband;
};

/** Hash of every field of a wave (hits are confirmed by ==). */
uint64_t
waveHash(const WaveSpec &w)
{
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    auto mix = [&h](int64_t v) {
        h ^= static_cast<uint64_t>(v) + 0x9e3779b97f4a7c15ULL + (h << 6) +
             (h >> 2);
    };
    mix(w.rows);
    mix(w.cols);
    mix(static_cast<int64_t>(w.channelA));
    mix(static_cast<int64_t>(w.channelB));
    mix(static_cast<int64_t>(w.channelOut));
    for (const TileDemand &d : w.tiles) {
        mix(d.macs);
        mix(d.wordsA);
        mix(d.wordsB);
        mix(d.psumWords);
    }
    return h;
}

/**
 * Clock every distinct wave of `seqs` exactly once. A wave's result is
 * a pure function of (WaveSpec, SimConfig): its GLB address starts at
 * 0 and no state crosses waves. So the waves are interned first (full
 * hash, every hit confirmed by full equality), and the distinct ones
 * clock in parallel on the shared pool, longest (most MACs on one PE)
 * first. Distinct waves are numbered in first-occurrence order and
 * their clocks stored by that number, so nothing depends on hash order
 * or thread count. Returns, per sequence, each wave's index into
 * `clocks`.
 */
std::vector<std::vector<size_t>>
clockDistinctWaves(const std::vector<const std::vector<WaveSpec> *> &seqs,
                   const SimConfig &cfg, std::vector<WaveClock> &clocks)
{
    std::vector<const WaveSpec *> distinct;
    std::unordered_multimap<uint64_t, size_t> seen;
    std::vector<std::vector<size_t>> ids(seqs.size());
    for (size_t s = 0; s < seqs.size(); ++s) {
        for (const WaveSpec &w : *seqs[s]) {
            const uint64_t h = waveHash(w);
            size_t id = distinct.size();
            const auto hits = seen.equal_range(h);
            for (auto it = hits.first; it != hits.second; ++it) {
                if (*distinct[it->second] == w) {
                    id = it->second;
                    break;
                }
            }
            if (id == distinct.size()) {
                distinct.push_back(&w);
                seen.emplace(h, id);
            }
            ids[s].push_back(id);
        }
    }

    std::vector<int64_t> longest(distinct.size(), 0);
    for (size_t d = 0; d < distinct.size(); ++d) {
        for (const TileDemand &t : distinct[d]->tiles)
            longest[d] = std::max(longest[d], t.macs);
    }
    std::vector<size_t> order(distinct.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
        return longest[x] > longest[y];
    });

    // Each free thread takes the next-longest wave: chunks of the
    // sorted order would hand one thread a run of the longest waves.
    clocks.assign(distinct.size(), WaveClock{});
    ThreadPool::global().parallelForEach(
        0, static_cast<int64_t>(order.size()), [&](int64_t k) {
            const size_t d = order[static_cast<size_t>(k)];
            clocks[d].result =
                simulateWaveImpl(*distinct[d], cfg, &clocks[d].sideband);
        });
    return ids;
}

/**
 * What a clocked piece exposes so callers can continue the
 * double-buffered drain chain across piece boundaries
 * (simulateEpochPlan): the spare GLB write capacity of the FIRST
 * wave's compute window (unused inside the piece — the first wave has
 * no in-piece predecessor to drain), and the LAST wave's staged psum
 * words together with the bank-bandwidth flush cycles for them that
 * the piece's own cycle count already includes. A boundary can then
 * hide some of those tail words under the next piece's head spare and
 * refund the difference in flush cycles.
 */
struct PieceLink
{
    int64_t headSpareWords = 0;
    int64_t tailWords = 0;
    int64_t tailFlushCycles = 0;
    bool hasWaves = false;
};

/**
 * Chain a clocked wave sequence (`ids` into `clocks`), overlapping the
 * two-psum-buffer drain when cfg.doubleBufferOutputs. At each wave
 * boundary the finished wave's psums swap into the spare buffer and
 * stream to the GLB through the write bandwidth the next wave's
 * compute window leaves spare (operand reads have priority: spare =
 * banks x ports x C_next minus the window's reads); words still
 * pending when the window closes flush at the full aggregate bank
 * bandwidth before the next swap. The cycles this saves versus the
 * serial drain (drain cycles plus the drain's own conflict-replay
 * cycles) are removed from `cycles` and reported in
 * overlappedDrainCycles; per-bank traffic is untouched, so
 * reads/writes match serial mode exactly. The saving is provably
 * non-negative, so double-buffered never clocks slower than serial on
 * the same waves.
 */
SimResult
simulateSequencePiece(const std::vector<size_t> &ids,
                      const std::vector<WaveClock> &clocks,
                      const SimConfig &cfg, PieceLink *link)
{
    SimResult total;
    total.glbBankReads.assign(static_cast<size_t>(cfg.glbBanks), 0);
    total.glbBankWrites.assign(static_cast<size_t>(cfg.glbBanks), 0);
    const int64_t bank_bw =
        static_cast<int64_t>(cfg.glbBanks) * cfg.glbBankPortsPerCycle;
    int64_t pending_words = 0;   // staged psums of the previous wave
    int64_t pending_serial = 0;  // their serial-mode drain cycles
    bool first = true;
    for (size_t id : ids) {
        const WaveSideband &sb = clocks[id].sideband;
        total.accumulate(clocks[id].result);
        if (cfg.doubleBufferOutputs) {
            const int64_t spare = std::max<int64_t>(
                0, bank_bw * sb.computeCycles - sb.computeReads);
            if (first && link != nullptr)
                link->headSpareWords = spare;
            if (!first) {
                const int64_t hidden = std::min(pending_words, spare);
                const int64_t flush =
                    ceilDiv(pending_words - hidden, bank_bw);
                const int64_t saved = pending_serial - flush;
                total.cycles -= saved;
                total.overlappedDrainCycles += saved;
            }
            pending_words = sb.drainWords;
            pending_serial = sb.drainSerialCycles;
        }
        first = false;
    }
    if (cfg.doubleBufferOutputs && !first) {
        // Last wave: the array is idle, so the staging buffer flushes
        // at the full bank bandwidth. The flush stays exposed here;
        // piece-chaining callers may refund part of it at the boundary.
        const int64_t flush = ceilDiv(pending_words, bank_bw);
        const int64_t saved = pending_serial - flush;
        total.cycles -= saved;
        total.overlappedDrainCycles += saved;
        if (link != nullptr) {
            link->tailWords = pending_words;
            link->tailFlushCycles = flush;
        }
    }
    if (link != nullptr)
        link->hasWaves = !first;
    return total;
}

/**
 * Chain one (layer, phase) piece: the wave sequence plus its DRAM->GLB
 * refill. Refill is double-buffered against the piece's whole
 * array-busy window (compute + drain + conflict replay, net of
 * internal overlap): only the excess demand surfaces as dramStallCycles
 * and extends `cycles`.
 */
SimResult
simulatePhasePiece(const std::vector<size_t> &ids,
                   const std::vector<WaveClock> &clocks,
                   double refill_words, const SimConfig &cfg,
                   PieceLink *link)
{
    SimResult res = simulateSequencePiece(ids, clocks, cfg, link);
    if (cfg.dramWordsPerCycle > 0.0 && refill_words > 0.0) {
        const int64_t refill = static_cast<int64_t>(
            std::ceil(refill_words / cfg.dramWordsPerCycle));
        res.dramRefillCycles += refill;
        const int64_t stall = std::max<int64_t>(0, refill - res.cycles);
        res.dramStallCycles += stall;
        res.cycles += stall;
    }
    return res;
}

} // namespace

SimResult
simulateWave(const WaveSpec &wave, const SimConfig &cfg)
{
    return simulateWaveImpl(wave, cfg, nullptr);
}

namespace {

/**
 * Build the wave sequence for (layer, phase, mapping): the wave
 * tiler's waves (arch/wave_tiler.h — the analytic model's exact
 * tiling), optional half-tile balancing along the sparse axis, and
 * per-slot densities from the profile (ProfileSlotWork, the cost
 * model's own slot-work oracle). Slots with zero density are idle:
 * zero demand, no phantom MAC or psum word, excluded from stalls.
 * Waves whose every slot is idle are dropped (they would simulate to
 * zero cycles). Geometry depends only on the profile, the mapping, the
 * array config, and the balance mode — never on SimConfig — which is
 * what lets sweep drivers build once and re-clock per configuration.
 */
std::vector<WaveSpec>
buildWaves(const LayerShape &layer, Phase phase, MappingKind mapping,
           int64_t batch, const arch::ArrayConfig &acfg,
           arch::BalanceMode balance,
           const LayerSparsityProfile &profile)
{
    const arch::ProfileSlotWork oracle{profile};
    const arch::WaveTiler tiler(acfg, layer, phase, mapping, batch);
    const auto &dims = tiler.dims();
    const double per_index = tiler.perIndex();

    const Operand sp = tiler.sparse();
    const Operand out = arch::outputOperand(phase);
    const Operand other = [&] {
        for (Operand op : arch::kAllOperands) {
            if (op != sp && op != out)
                return op;
        }
        PANIC("operand set degenerate");
    }();

    // Per-(d0,d1)-index unique word counts of each operand.
    auto f_idx = [&](Operand op) {
        double f = static_cast<double>(
            arch::operandVolume(layer, op, batch));
        for (int axis = 0; axis < 2; ++axis) {
            if (arch::dependsOn(op, dims[axis]))
                f /= static_cast<double>(tiler.extent(axis));
        }
        return f;
    };
    const double fa = f_idx(sp);
    const double fb = f_idx(other);
    const double fo = f_idx(out);
    const bool other_dep1 = arch::dependsOn(other, dims[1]);
    const bool out_dep1 = arch::dependsOn(out, dims[1]);

    WaveSpec wave_template;
    wave_template.rows = acfg.rows;
    wave_template.cols = acfg.cols;
    wave_template.channelA =
        channelFor(arch::classifyFlow(phase, sp, mapping));
    wave_template.channelB =
        channelFor(arch::classifyFlow(phase, other, mapping));
    wave_template.channelOut =
        channelFor(arch::classifyFlow(phase, out, mapping));

    const arch::SlotShape shape = tiler.shape();
    const bool rebalance = shape == arch::SlotShape::Slice &&
                           balance == arch::BalanceMode::HalfTile &&
                           tiler.halfTileOk();
    std::vector<WaveSpec> waves;
    tiler.forEachWave([&](const arch::Wave &w) {
        WaveSpec wave = wave_template;
        wave.tiles.assign(static_cast<size_t>(acfg.rows) * acfg.cols, {});

        // Optional half-tile balancing along the sparse axis.
        std::vector<double> balanced;
        if (rebalance) {
            std::vector<TileHalves> tiles;
            for (int64_t s = 0; s < tiler.sliceCount(w); ++s) {
                tiles.push_back(oracle.halves(sp, tiler.sliceDim(),
                                              tiler.sliceIndex(w, s)));
            }
            balanced = arch::rebalanceHalfTiles(tiles);
        }

        bool any_work = false;
        for (int64_t i = 0; i < w.n0; ++i) {
            for (int64_t j = 0; j < w.n1; ++j) {
                // The PE's summed density over its slot (its kernel
                // chunk when the tiler chunks weights).
                const int64_t count = tiler.chunkCount(w, j);
                const int64_t slot = tiler.sliceAxis() == 0 ? i : j;
                double dens_sum = 0.0;
                if (shape == arch::SlotShape::Uniform) {
                    dens_sum = oracle.uniform(sp);
                } else if (rebalance) {
                    dens_sum = balanced[static_cast<size_t>(slot)];
                } else if (shape == arch::SlotShape::Slice) {
                    dens_sum = oracle.slice(sp, tiler.sliceDim(),
                                            tiler.sliceIndex(w, slot));
                } else {
                    for (int64_t t = 0; t < count; ++t) {
                        dens_sum +=
                            oracle.pair(sp, dims[0], w.b0 + i, dims[1],
                                        tiler.chunkBase(w, j) + t);
                    }
                }
                // A zero-density slot is a fully pruned slice or
                // chunk: it holds no weights, retires no MACs, and
                // drains no psums — idle, not a phantom one-MAC tile.
                if (dens_sum <= 0.0)
                    continue;
                TileDemand d;
                d.macs = std::max<int64_t>(
                    1, std::llround(per_index * dens_sum));
                d.wordsA =
                    std::max<int64_t>(1, std::llround(fa * dens_sum));
                d.wordsB = std::max<int64_t>(
                    1, std::llround(fb * (other_dep1 ? count : 1)));
                d.psumWords = std::max<int64_t>(
                    1, std::llround(fo * (out_dep1 ? count : 1)));
                wave.tiles[static_cast<size_t>(i * acfg.cols + j)] = d;
                any_work = true;
            }
        }

        if (any_work)
            waves.push_back(std::move(wave));
    });
    return waves;
}

} // namespace

SimResult
simulateWaveSequence(const std::vector<WaveSpec> &waves,
                     const SimConfig &cfg)
{
    validateSimConfig(cfg);
    std::vector<WaveClock> clocks;
    const auto ids = clockDistinctWaves({&waves}, cfg, clocks);
    return simulateSequencePiece(ids[0], clocks, cfg, nullptr);
}

SimResult
simulateLayerPhase(const LayerShape &layer, Phase phase,
                   MappingKind mapping,
                   const LayerSparsityProfile &profile, int64_t batch,
                   const arch::ArrayConfig &acfg, const SimConfig &scfg,
                   arch::BalanceMode balance)
{
    validateSimConfig(scfg);
    return simulateWaveSequence(
        buildWaves(layer, phase, mapping, batch, acfg, balance, profile),
        scfg);
}

EpochWavePlan
buildEpochWavePlan(const arch::EpochTrace &epoch, MappingKind mapping,
                   const arch::ArrayConfig &acfg,
                   arch::BalanceMode balance)
{
    return buildEpochWavePlan(epoch, arch::measuredProfiles(epoch), mapping,
                              acfg, balance);
}

EpochWavePlan
buildEpochWavePlan(const arch::EpochTrace &epoch,
                   const std::vector<LayerSparsityProfile> &profiles,
                   MappingKind mapping, const arch::ArrayConfig &acfg,
                   arch::BalanceMode balance)
{
    PROCRUSTES_ASSERT(epoch.batchSize > 0, "epoch has no batch size");
    PROCRUSTES_ASSERT(profiles.size() == epoch.layers.size(),
                      "one measured profile per traced layer");
    EpochWavePlan plan;
    plan.batchSize = epoch.batchSize;

    // Execution order of one training iteration: forward through the
    // layers, then backward-data and weight-update per layer walking
    // back — the order the cross-phase drain-overlap chain follows.
    const size_t nl = epoch.layers.size();
    for (size_t l = 0; l < nl; ++l)
        plan.order.push_back({l, Phase::Forward, {}, 0.0});
    for (size_t i = 0; i < nl; ++i) {
        const size_t l = nl - 1 - i;
        plan.order.push_back({l, Phase::Backward, {}, 0.0});
        plan.order.push_back({l, Phase::WeightUpdate, {}, 0.0});
    }

    // Slot work comes from the epoch's measured profiles, the ones
    // Accelerator::evaluateTrace costs; refill words are the sparse
    // machine's DRAM words in the cost model's own accounting.
    const arch::CostModel sparse_model(acfg, arch::CostOptions{});

    // Each entry's geometry is a pure function of the epoch's measured
    // facts — build them in parallel, one entry per claim (their sizes
    // differ a lot); indices fix the order.
    ThreadPool::global().parallelForEach(
        0, static_cast<int64_t>(plan.order.size()), [&](int64_t i) {
            PhaseWavePlan &e = plan.order[static_cast<size_t>(i)];
            const LayerTrace &layer = epoch.layers[e.layerIndex];
            const LayerSparsityProfile &profile = profiles[e.layerIndex];
            e.waves = buildWaves(layer.shape, e.phase, mapping,
                                 epoch.batchSize, acfg, balance, profile);
            e.refillWords = sparse_model.dramWords(
                layer.shape, e.phase, profile, epoch.batchSize,
                layer.measuredStats(e.phase, /*sparse=*/true));
        });
    return plan;
}

TraceSimResult
simulateEpochPlan(const EpochWavePlan &plan, const SimConfig &scfg)
{
    validateSimConfig(scfg);
    const int64_t bank_bw =
        static_cast<int64_t>(scfg.glbBanks) * scfg.glbBankPortsPerCycle;
    std::vector<const std::vector<WaveSpec> *> seqs;
    for (const PhaseWavePlan &e : plan.order)
        seqs.push_back(&e.waves);
    std::vector<WaveClock> clocks;
    const auto ids = clockDistinctWaves(seqs, scfg, clocks);

    // Chain each (layer, phase) piece over its clocked waves and stitch
    // the pieces in execution order.
    TraceSimResult out;
    int64_t tail_words = 0;   // previous piece's staged tail psums
    int64_t tail_flush = 0;   // their flush cycles, already counted
    for (size_t i = 0; i < plan.order.size(); ++i) {
        const PhaseWavePlan &e = plan.order[i];
        PieceLink link;
        const SimResult piece =
            simulatePhasePiece(ids[i], clocks, e.refillWords, scfg, &link);
        SimResult &bucket = e.phase == Phase::Forward
                                ? out.fw
                                : e.phase == Phase::Backward ? out.bw
                                                             : out.wu;
        bucket.accumulate(piece);
        out.total.accumulate(piece);
        if (scfg.doubleBufferOutputs && link.hasWaves) {
            // Boundary overlap: the previous piece's tail words hide
            // under this piece's first compute window (its spare GLB
            // write bandwidth, unused inside the piece); the refunded
            // flush cycles are attributed to `total` only — inside a
            // phase bucket the pieces are not adjacent in time.
            const int64_t hidden =
                std::min(tail_words, link.headSpareWords);
            const int64_t new_flush =
                ceilDiv(tail_words - hidden, bank_bw);
            const int64_t credit = tail_flush - new_flush;
            out.total.cycles -= credit;
            out.total.overlappedDrainCycles += credit;
            tail_words = link.tailWords;
            tail_flush = link.tailFlushCycles;
        }
    }
    return out;
}

TraceSimResult
simulateTraceEpoch(const arch::EpochTrace &epoch, MappingKind mapping,
                   const arch::ArrayConfig &acfg, const SimConfig &scfg,
                   arch::BalanceMode balance)
{
    validateSimConfig(scfg);
    return simulateEpochPlan(
        buildEpochWavePlan(epoch, mapping, acfg, balance), scfg);
}

} // namespace sim
} // namespace procrustes
