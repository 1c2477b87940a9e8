/**
 * @file
 * Implementation of the RNIC hardware model.
 */

#include "rnic/rnic.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

namespace smart::rnic {

using sim::Task;
using sim::Time;

const char *
wcStatusName(WcStatus s)
{
    switch (s) {
    case WcStatus::Success:
        return "success";
    case WcStatus::RemoteAccessError:
        return "remote_access_error";
    case WcStatus::RetryExceeded:
        return "retry_exceeded";
    case WcStatus::FlushedInError:
        return "flushed_in_error";
    }
    return "unknown";
}

/**
 * What a WirePacket is doing on the wire right now. One WR takes either
 * Request -> Response (success), Request -> Nak (responder refuses), or
 * Request -> Timeout (responder crashed; the "packet" models the
 * initiator transport giving up after its retry budget).
 */
enum class PacketKind : std::uint8_t
{
    Request,
    Response,
    Nak,
    Timeout,
};

/**
 * The unit of blade-to-blade traffic: one work request in flight. One
 * packet per WR carries it request -> response -> completion; the
 * initiator takes it from and returns it to its packet pool.
 */
struct WirePacket
{
    WorkReq wr;
    Rnic *initiator = nullptr;
    Rnic *responder = nullptr;
    /**
     * READ payload buffer: borrowed from the initiator's byte pool when
     * the request is built, filled by the responder at DMA time, landed
     * and recycled by the initiator.
     */
    std::vector<std::uint8_t> payload;
    std::uint64_t oldValue = 0; ///< prior memory value (CAS/FAA)
    PacketKind kind = PacketKind::Request;
    WcStatus status = WcStatus::Success;
};

/**
 * Wire payload delivering one WirePacket: runs as the injected delivery
 * event, at the packet's dtime.
 */
struct PacketDelivery
{
    WirePacket *pkt;

    void
    operator()()
    {
        switch (pkt->kind) {
        case PacketKind::Request:
            Rnic::startDetached(pkt->responder->serveRequest(pkt));
            break;
        case PacketKind::Response:
            Rnic::startDetached(pkt->initiator->finishOne(pkt));
            break;
        case PacketKind::Nak:
        case PacketKind::Timeout:
            pkt->initiator->completeError(pkt->wr, pkt->status);
            pkt->initiator->recyclePacket(pkt);
            break;
        }
    }
};

void
Rnic::sendPacket(Time dtime, WirePacket *pkt)
{
    wire_.send(dtime, PacketDelivery{pkt});
}

WirePacket *
Rnic::takePacket()
{
    if (packetPool_.empty()) {
        packets_.push_back(std::make_unique<WirePacket>());
        return packets_.back().get();
    }
    WirePacket *p = packetPool_.back();
    packetPool_.pop_back();
    return p;
}

void
Rnic::recyclePacket(WirePacket *pkt)
{
    recycleByteBuffer(std::move(pkt->payload));
    *pkt = WirePacket{};
    packetPool_.push_back(pkt);
}

Rnic::Rnic(sim::Simulator &sim, const RnicConfig &cfg, std::string name)
    : sim_(sim), cfg_(cfg), name_(std::move(name)),
      faultName_(name_ + ".rnic"), wire_(sim),
      pipeline_(sim, 1, name_ + ".pipe"),
      atomicUnits_(sim, cfg.atomicUnits, name_ + ".atomic"),
      dmaEngines_(sim, cfg.dmaEngines, name_ + ".dma"),
      pcie_(sim, 1, name_ + ".pcie"),
      egress_(sim, 1, name_ + ".egress"),
      mttCache_(cfg.mttCacheCapacity)
{
    sim::Labels labels{{"blade", name_}};
    sim::MetricsRegistry &m = sim_.metrics();
    perf_.registerWith(m, this, labels);
    m.registerCounter(this, "rnic.wqe_hits", labels, &wqeHits_);
    m.registerCounter(this, "rnic.wqe_misses", labels, &wqeMisses_);
    m.registerGauge(this, "rnic.owr_now", labels,
                    [this] { return static_cast<double>(owrNow_); });
    m.registerCounter(this, "rnic.wr_errors", labels, &wrErrors_);
    sim_.addFaultTarget(this);
}

Rnic::~Rnic()
{
    sim_.removeFaultTarget(this);
    sim_.metrics().unregisterOwner(this);
}

void
Rnic::applyFault(sim::FaultKind kind, sim::Time duration)
{
    switch (kind) {
    case sim::FaultKind::CompletionError:
        ++pendingCompletionErrors_;
        break;
    case sim::FaultKind::NicStall:
        stallUntil_ = std::max(stallUntil_, sim_.now() + duration);
        break;
    case sim::FaultKind::RnicReset:
        // Firmware reset: in-flight WRs flush in error (epoch mismatch
        // at completion time) and bound QPs must walk back to RTS. The
        // device absorbs no new doorbells while re-initializing.
        ++epoch_;
        stallUntil_ = std::max(stallUntil_, sim_.now() + cfg_.qpModifyNs);
        break;
    case sim::FaultKind::Crash:
        setDown(true);
        if (duration > 0)
            sim_.schedule(duration, [this] { setDown(false); });
        break;
    }
}

void
Rnic::completeError(const WorkReq &wr, WcStatus status)
{
    wrErrors_.add();
    --owrNow_;
    if (wr.sink != nullptr)
        wr.sink->complete(wr, 0, status);
}

namespace {

/** rkey = id * kRkeyStride + kRkeyTag: arbitrary but deterministic. */
constexpr std::uint32_t kRkeyStride = 0x1000u;
constexpr std::uint32_t kRkeyTag = 0xabcu;

} // namespace

const MrRecord &
Rnic::registerMemory(std::uint8_t *base, std::uint64_t length)
{
    MrRecord &rec = mrs_.emplace_back();
    rec.id = static_cast<std::uint32_t>(mrs_.size());
    rec.rkey = rec.id * kRkeyStride + kRkeyTag;
    rec.base = base;
    rec.length = length;
    return rec;
}

const MrRecord *
Rnic::findMr(std::uint32_t rkey) const
{
    // The id is the rkey's high bits; the stored rkey decides whether
    // the entry is still live (a stale or forged rkey misses).
    std::uint32_t id = rkey / kRkeyStride;
    if (id == 0 || id > mrs_.size())
        return nullptr;
    const MrRecord &rec = mrs_[id - 1];
    return rec.rkey == rkey ? &rec : nullptr;
}

void
Rnic::invalidateMr(std::uint32_t rkey)
{
    if (findMr(rkey) != nullptr)
        mrs_[rkey / kRkeyStride - 1].rkey = 0;
}

double
Rnic::dramBytesPerWr() const
{
    std::uint64_t wrs = perf_.wrsCompleted.value();
    return wrs ? static_cast<double>(perf_.dramBytes.value()) / wrs : 0.0;
}

void
Rnic::postBatch(Rnic *target, std::vector<WorkReq> batch)
{
    for (WorkReq &wr : batch) {
        wr.uid = nextUid_++;
        wr.initEpoch = epoch_;
    }
    owrNow_ += batch.size();
    if (stallUntil_ > sim_.now()) {
        // Stalled NIC: the doorbell write posts, but the device fetches
        // nothing until the stall lifts. The batch is boxed because a
        // vector would blow the event's inline-capture budget; this path
        // only runs under an injected stall, never in the hot loop.
        auto boxed =
            std::make_unique<std::vector<WorkReq>>(std::move(batch));
        sim_.scheduleAt(stallUntil_,
                        [this, target, b = std::move(boxed)]() mutable {
                            sim_.spawnDetached(
                                processBatch(target, std::move(*b)));
                        });
        return;
    }
    sim_.spawnDetached(processBatch(target, std::move(batch)));
}

Task
Rnic::processBatch(Rnic *target, std::vector<WorkReq> batch)
{
    // The doorbell ring triggers a DMA fetch of the new WQEs, in
    // chunk-sized PCIe reads (the hardware prefetches whole chunks).
    std::uint32_t wqe_bytes =
        static_cast<std::uint32_t>(batch.size()) * cfg_.wqeBytes;
    std::uint32_t lines = (wqe_bytes + 63) / 64;
    std::uint32_t fetch_bytes = lines * 64;
    perf_.dramBytes.add(fetch_bytes);
    // The fetch serves the whole batch; attribute it to the first traced
    // WR (sampling makes at most a few per batch traced anyway).
    sim::SpanId traced = 0;
    sim::SpanTracer *sp = sim_.spans();
    if (sp != nullptr) {
        for (const WorkReq &wr : batch) {
            if (wr.traceSpan != 0) {
                traced = wr.traceSpan;
                break;
            }
        }
    }
    Time fetch_t0 = sim_.now();
    co_await pcieDma(fetch_bytes);
    if (traced != 0)
        sp->record(spanTrack(*sp), sim::Stage::WqeFetch, traced, fetch_t0,
                   sim_.now());

    for (WorkReq &wr : batch)
        sim_.spawnDetached(processOne(target, std::move(wr)));
    recycleBatchBuffer(std::move(batch));
}

/*
 * Frameless leaf stages (see the header note): each pair of functions is
 * the old coroutine body unrolled into EventFn continuations. The grant /
 * delay / release / delay sequence schedules exactly the same events at
 * the same times as the coroutine version did.
 */

void
Rnic::dmaStart(std::uint32_t bytes, std::coroutine_handle<> h)
{
    if (pcie_.tryAcquire())
        dmaOccupy(bytes, h);
    else
        pcie_.enqueue([this, bytes, h] { dmaOccupy(bytes, h); });
}

void
Rnic::dmaOccupy(std::uint32_t bytes, std::coroutine_handle<> h)
{
    // The zero-duration checks mirror delay()'s await_ready elision in
    // the coroutine formulation: a 0 ns stage runs inline, no event.
    Time occupancy =
        static_cast<Time>(static_cast<double>(bytes) / cfg_.pcieBytesPerNs);
    auto landed = [this, h] {
        pcie_.release();
        if (cfg_.pcieLatencyNs == 0)
            h.resume();
        else
            sim_.scheduleResume(cfg_.pcieLatencyNs, h);
    };
    if (occupancy == 0)
        landed();
    else
        sim_.schedule(occupancy, landed);
}

void
Rnic::sendStart(std::uint32_t bytes, std::coroutine_handle<> h)
{
    if (egress_.tryAcquire())
        sendOccupy(bytes, h);
    else
        egress_.enqueue([this, bytes, h] { sendOccupy(bytes, h); });
}

void
Rnic::sendOccupy(std::uint32_t bytes, std::coroutine_handle<> h)
{
    // Resumes at serialization end; propagation is carried by the wire
    // packet's delivery timestamp (see sendPacket), not modelled here.
    Time occupancy =
        static_cast<Time>(static_cast<double>(bytes) / cfg_.linkBytesPerNs);
    if (occupancy == 0) {
        // May run inside await_suspend, where the frame is not suspended
        // yet: bounce through the event queue instead of resuming inline.
        egress_.release();
        sim_.post(h);
        return;
    }
    sim_.schedule(occupancy, [this, h] {
        egress_.release();
        h.resume();
    });
}

void
Rnic::translateStart(std::coroutine_handle<> h)
{
    // Only reached on a miss (await_ready covered the hit): an extra
    // pipeline pass plus a host-DRAM read.
    perf_.mttRefetches.add();
    perf_.dramBytes.add(cfg_.mttMissBytes);
    if (pipeline_.tryAcquire())
        translatePipe(h);
    else
        pipeline_.enqueue([this, h] { translatePipe(h); });
}

void
Rnic::translatePipe(std::coroutine_handle<> h)
{
    auto passed = [this, h] {
        pipeline_.release();
        if (cfg_.mttMissLatencyNs == 0)
            h.resume();
        else
            sim_.scheduleResume(cfg_.mttMissLatencyNs, h);
    };
    if (cfg_.pipeResponderNs == 0)
        passed();
    else
        sim_.schedule(cfg_.pipeResponderNs, passed);
}

Task
Rnic::processOne(Rnic *target, WorkReq wr)
{
    // Device-side spans are recorded by wrapping existing awaits in
    // now() timestamps — the pipeline itself is untouched. Untraced WRs
    // (the common case, and every WR when no tracer is installed) keep
    // sp == nullptr and skip every site with one branch.
    sim::SpanTracer *sp = wr.traceSpan != 0 ? sim_.spans() : nullptr;
    auto devSpan = [&](Rnic &dev, sim::Stage st, Time t0) {
        if (sp != nullptr)
            sp->record(dev.spanTrack(*sp), st, wr.traceSpan, t0,
                       sim_.now());
    };

    // ---- Initiator issue ----
    co_await pipeline_.acquire();
    co_await sim_.delay(cfg_.pipeIssueNs);
    pipeline_.release();

    // Device-context ICM lookup (QPC root / MPT segment). With one
    // shared context this always hits; with per-thread contexts the
    // aggregate footprint thrashes the on-chip cache (s2.2).
    std::uint64_t icm_key =
        wr.icmBase + wr.uid % cfg_.icmEntriesPerContext;
    if (!mttCache_.access(icm_key)) {
        Time t0 = sim_.now();
        perf_.mttRefetches.add();
        perf_.dramBytes.add(cfg_.mttMissBytes);
        co_await pipeline_.acquire();
        co_await sim_.delay(cfg_.icmMissExtraPipeNs);
        pipeline_.release();
        co_await sim_.delay(cfg_.mttMissLatencyNs);
        devSpan(*this, sim::Stage::MttFetch, t0);
    }

    if (wr.localBuf != nullptr) {
        Time t0 = sim_.now();
        co_await translate(wr.localTransKey);
        devSpan(*this, sim::Stage::MttFetch, t0); // hits are 0 ns (skipped)
    }

    // Unreachable responder (crashed blade): the transport retries for
    // its timeout budget, then completes the WR in error.
    if (target == nullptr || target->down_) {
        co_await sim_.delay(cfg_.transportRetryNs);
        completeError(wr, WcStatus::RetryExceeded);
        co_return;
    }

    // ---- Request over the wire ----
    std::uint32_t req_bytes = cfg_.headerBytes;
    if (wr.op == Op::Write)
        req_bytes += wr.length;
    else if (wr.op == Op::Cas)
        req_bytes += 16;
    else if (wr.op == Op::Faa)
        req_bytes += 8;
    Time wire_t0 = sim_.now();
    co_await sendTo(req_bytes); // resumes at serialization end
    Time arrival = sim_.now() + cfg_.propagationNs;
    if (sp != nullptr)
        sp->record(spanTrack(*sp), sim::Stage::Link, wr.traceSpan, wire_t0,
                   arrival);

    WirePacket *pkt = takePacket();
    pkt->initiator = this;
    pkt->responder = target;
    pkt->kind = PacketKind::Request;
    if (wr.op == Op::Read)
        pkt->payload = takeByteBuffer(); // responder fills it at DMA time
    pkt->wr = std::move(wr);
    sendPacket(arrival, pkt);
    // The WR continues in serveRequest() when the request arrives.
}

Task
Rnic::serveRequest(WirePacket *p)
{
    WirePacket &pkt = *p;
    WorkReq &wr = pkt.wr;
    sim::SpanTracer *sp = wr.traceSpan != 0 ? sim_.spans() : nullptr;
    auto devSpan = [&](sim::Stage st, Time t0) {
        if (sp != nullptr)
            sp->record(spanTrack(*sp), st, wr.traceSpan, t0, sim_.now());
    };

    if (down_) {
        // Crashed while the request was in flight: no ACK ever comes; the
        // initiator transport retries for its budget, then gives up. The
        // Timeout packet models that budget expiring on the initiator.
        pkt.kind = PacketKind::Timeout;
        pkt.status = WcStatus::RetryExceeded;
        sendPacket(sim_.now() + cfg_.transportRetryNs, p);
        co_return;
    }
    perf_.wrsServed.add();
    co_await pipeline_.acquire();
    co_await sim_.delay(cfg_.pipeResponderNs);
    pipeline_.release();

    const MrRecord *mr = findMr(wr.rkey);
    if (mr == nullptr || wr.remoteOffset + wr.length > mr->length) {
        // Invalid rkey (e.g. the MR was re-registered after a blade
        // restart) or out-of-bounds access: the responder NAKs and the
        // initiator sees an error CQE.
        co_await sendTo(cfg_.headerBytes);
        pkt.kind = PacketKind::Nak;
        pkt.status = WcStatus::RemoteAccessError;
        sendPacket(sim_.now() + cfg_.propagationNs, p);
        co_return;
    }
    std::uint8_t *remote = mr->base + wr.remoteOffset;
    Time t0 = sim_.now();
    co_await translate(transKey(mr->id, wr.remoteOffset));
    devSpan(sim::Stage::MttFetch, t0);

    std::uint32_t resp_bytes = cfg_.headerBytes;

    switch (wr.op) {
      case Op::Read: {
        std::uint32_t bytes = wr.length + cfg_.payloadPadBytes;
        perf_.dramBytes.add(bytes);
        t0 = sim_.now();
        co_await pcieDma(bytes);
        devSpan(sim::Stage::Dma, t0);
        // Snapshot target memory at DMA-read time: later concurrent
        // writes must not be visible to this READ.
        pkt.payload.assign(remote, remote + wr.length);
        resp_bytes += wr.length;
        break;
      }
      case Op::Write: {
        std::uint32_t bytes = wr.length + cfg_.payloadPadBytes;
        perf_.dramBytes.add(bytes);
        t0 = sim_.now();
        co_await pcieDma(bytes);
        devSpan(sim::Stage::Dma, t0);
        assert(wr.localBuf != nullptr);
        std::memcpy(remote, wr.localBuf, wr.length);
        break;
      }
      case Op::Cas: {
        assert(wr.length == 8);
        t0 = sim_.now();
        co_await atomicUnits_.acquire();
        co_await sim_.delay(cfg_.atomicServiceNs);
        // Atomic read-compare-write executes in one event: no interleaving.
        std::memcpy(&pkt.oldValue, remote, 8);
        if (pkt.oldValue == wr.compare)
            std::memcpy(remote, &wr.swap, 8);
        atomicUnits_.release();
        devSpan(sim::Stage::Atomic, t0);
        perf_.dramBytes.add(16);
        resp_bytes += 8;
        break;
      }
      case Op::Faa: {
        assert(wr.length == 8);
        t0 = sim_.now();
        co_await atomicUnits_.acquire();
        co_await sim_.delay(cfg_.atomicServiceNs);
        std::memcpy(&pkt.oldValue, remote, 8);
        std::uint64_t updated = pkt.oldValue + wr.compare;
        std::memcpy(remote, &updated, 8);
        atomicUnits_.release();
        devSpan(sim::Stage::Atomic, t0);
        perf_.dramBytes.add(16);
        resp_bytes += 8;
        break;
      }
    }

    // ---- Response over the wire ----
    Time wire_t0 = sim_.now();
    co_await sendTo(resp_bytes);
    Time arrival = sim_.now() + cfg_.propagationNs;
    if (sp != nullptr)
        sp->record(spanTrack(*sp), sim::Stage::Link, wr.traceSpan, wire_t0,
                   arrival);
    pkt.kind = PacketKind::Response;
    pkt.status = WcStatus::Success;
    sendPacket(arrival, p);
    // The WR continues in finishOne() when the response arrives.
}

Task
Rnic::finishOne(WirePacket *p)
{
    WirePacket &pkt = *p;
    WorkReq &wr = pkt.wr;
    sim::SpanTracer *sp = wr.traceSpan != 0 ? sim_.spans() : nullptr;
    auto devSpan = [&](sim::Stage st, Time t0) {
        if (sp != nullptr)
            sp->record(spanTrack(*sp), st, wr.traceSpan, t0, sim_.now());
    };

    // ---- Initiator completion ----
    if (down_ || epoch_ != wr.initEpoch) {
        // The initiating device reset/crashed under this WR: its QP is
        // gone, so the response is dropped and the WR flushes in error.
        completeError(wr, WcStatus::FlushedInError);
        recyclePacket(p);
        co_return;
    }
    if (pendingCompletionErrors_ > 0) {
        --pendingCompletionErrors_;
        completeError(wr, WcStatus::RemoteAccessError);
        recyclePacket(p);
        co_return;
    }
    if (completionErrorProb_ > 0.0 && faultRng_ != nullptr &&
        faultRng_->uniformDouble() < completionErrorProb_) {
        completeError(wr, WcStatus::RemoteAccessError);
        recyclePacket(p);
        co_return;
    }

    bool wqe_hit = rng_.uniformDouble() < wqeHitProb();
    if (wqe_hit) {
        wqeHits_.add();
    } else {
        // WQE state fell out of the on-chip cache: refetch via a DMA
        // engine. This is the cache-thrashing cost of too many OWRs.
        wqeMisses_.add();
        perf_.wqeRefetches.add();
        if (wr.wqeMissCounter)
            wr.wqeMissCounter->add();
        perf_.dramBytes.add(cfg_.wqeMissBytes);
        Time t0 = sim_.now();
        co_await dmaEngines_.acquire();
        co_await sim_.delay(cfg_.dmaMissServiceNs);
        dmaEngines_.release();
        devSpan(sim::Stage::WqeFetch, t0);
    }
    co_await pipeline_.acquire();
    co_await sim_.delay(cfg_.pipeCompletionNs);
    pipeline_.release();

    // Land payload and the (compressed) CQE in host memory.
    std::uint32_t land_bytes = cfg_.cqeBytes;
    if (wr.op == Op::Read)
        land_bytes += wr.length + cfg_.payloadPadBytes;
    else if (wr.op == Op::Cas || wr.op == Op::Faa)
        land_bytes += 8;
    perf_.dramBytes.add(land_bytes);
    Time wire_t0 = sim_.now();
    co_await pcieDma(land_bytes);
    devSpan(sim::Stage::Pcie, wire_t0);

    if (wr.op == Op::Read && wr.localBuf != nullptr)
        std::memcpy(wr.localBuf, pkt.payload.data(), wr.length);
    if ((wr.op == Op::Cas || wr.op == Op::Faa) && wr.localBuf != nullptr)
        std::memcpy(wr.localBuf, &pkt.oldValue, 8);

    perf_.wrsCompleted.add();
    --owrNow_;
    if (wr.sink != nullptr)
        wr.sink->complete(wr, pkt.oldValue, WcStatus::Success);
    recyclePacket(p);
}

} // namespace smart::rnic
