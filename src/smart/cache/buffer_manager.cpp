#include "smart/cache/buffer_manager.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "sim/metrics.hpp"
#include "smart/smart_ctx.hpp"
#include "smart/smart_runtime.hpp"

namespace smart::cache {

BufferManager::BufferManager(SmartRuntime &rt, const CacheConfig &cfg)
    : rt_(rt), cfg_(cfg)
{
    std::uint32_t n = cfg_.numFrames();
    assert(n > 0 && "enabled cache needs at least one frame");
    assert(static_cast<std::uint64_t>(n) * cfg_.lineBytes < (1ull << 32) &&
           "frame pool must fit a 4 GiB local MR");
    pool_.resize(static_cast<std::size_t>(n) * cfg_.lineBytes);
    frames_.resize(n);
    freeList_.reserve(n);
    for (std::uint32_t i = n; i-- > 0;)
        freeList_.push_back(i); // pop_back hands out frame 0 first
    table_.reserve(n);

    sim::Labels labels{{"blade", rt_.name()}};
    sim::MetricsRegistry &m = rt_.sim().metrics();
    m.registerCounter(this, "smart.cache.hits", labels, &hits_);
    m.registerCounter(this, "smart.cache.misses", labels, &misses_);
    m.registerCounter(this, "smart.cache.evictions", labels, &evictions_);
    m.registerCounter(this, "smart.cache.writebacks", labels, &writebacks_);
    m.registerCounter(this, "smart.cache.invalidations", labels,
                      &invalidations_);
    m.registerCounter(this, "smart.cache.pool_exhausted", labels, &exhausted_);
    m.registerCounter(this, "smart.cache.handoffs", labels, &handoffs_);
    m.registerGauge(this, "smart.cache.resident_lines", labels,
                    [this] { return static_cast<double>(residentLines()); });
    m.registerGauge(this, "smart.cache.dirty_lines", labels,
                    [this] { return static_cast<double>(dirtyLines()); });
}

BufferManager::~BufferManager()
{
    rt_.sim().metrics().unregisterOwner(this);
}

std::uint32_t
BufferManager::residentLines() const
{
    std::uint32_t n = 0;
    for (const Frame &f : frames_) {
        if (f.state == FrameState::Ready && !f.detached)
            ++n;
    }
    return n;
}

std::uint32_t
BufferManager::dirtyLines() const
{
    std::uint32_t n = 0;
    for (const Frame &f : frames_) {
        if (f.dirty && !f.detached)
            ++n;
    }
    return n;
}

void
BufferManager::wakeWaiters(Frame &f)
{
    for (std::coroutine_handle<> h : f.waiters)
        rt_.sim().post(h);
    f.waiters.clear();
}

void
BufferManager::detach(Frame &f)
{
    if (!f.detached) {
        table_.erase(f.key);
        f.detached = true;
    }
}

void
BufferManager::tryReclaim(std::uint32_t idx)
{
    Frame &f = frames_[idx];
    if (!f.detached || f.pins != 0 || f.wbInFlight ||
        f.state == FrameState::Loading)
        return;
    wakeWaiters(f);
    f.key = 0;
    f.patches.clear();
    f.state = FrameState::Free;
    f.detached = false;
    f.dirty = false;
    f.refBit = false;
    f.staleOnFill = false;
    f.abandoned = false;
    ++f.seq;
    freeList_.push_back(idx);
}

void
BufferManager::unpin(std::uint32_t frame)
{
    if (frame == kNoFrame)
        return;
    Frame &f = frames_[frame];
    assert(f.pins > 0);
    --f.pins;
    if (f.detached)
        tryReclaim(frame);
}

std::uint32_t
BufferManager::allocFrame(SmartCtx &ctx, bool &staged)
{
    if (!freeList_.empty()) {
        std::uint32_t idx = freeList_.back();
        freeList_.pop_back();
        return idx;
    }
    std::uint32_t n = numFrames();
    // Two sweeps: the first may only clear reference bits / kick off
    // write-backs, the second then finds a victim. Write-backs staged
    // here complete inside the caller's own sync round, so a third sweep
    // could not see them clean yet anyway.
    for (std::uint32_t scan = 0; scan < 2 * n; ++scan) {
        std::uint32_t idx = hand_;
        hand_ = hand_ + 1 == n ? 0 : hand_ + 1;
        Frame &f = frames_[idx];
        if (f.state != FrameState::Ready || f.pins != 0 || f.detached)
            continue;
        if (f.dirty || f.wbInFlight) {
            if (f.dirty && !f.wbInFlight) {
                stageWriteBack(ctx, idx);
                staged = true;
            }
            continue;
        }
        if (f.refBit) {
            f.refBit = false; // second chance
            continue;
        }
        evictions_.add();
        table_.erase(f.key);
        f.key = 0;
        f.patches.clear();
        f.refBit = false;
        f.staleOnFill = false;
        f.abandoned = false;
        f.state = FrameState::Free;
        ++f.seq;
        return idx;
    }
    return kNoFrame;
}

void
BufferManager::stageWriteBack(SmartCtx &ctx, std::uint32_t idx)
{
    Frame &f = frames_[idx];
    f.wbInFlight = true;
    f.wbGen = f.dirtyGen;
    writebacks_.add();
    RemotePtr dst =
        rt_.ptr(keyBlade(f.key), keyLine(f.key) * cfg_.lineBytes);
    ctx.stageCacheWrite(dst, ConstMemSpan{frameBytes(idx), cfg_.lineBytes},
                        wbCookie(idx));
}

sim::Task
BufferManager::ensureLinePinned(SmartCtx &ctx, const RemotePtr &line_ptr,
                                LineKey key, std::uint32_t &frame,
                                bool &staged)
{
    for (;;) {
        auto it = table_.find(key);
        if (it != table_.end()) {
            Frame &f = frames_[it->second];
            if (f.state == FrameState::Ready) {
                hits_.add();
                f.refBit = true;
                ++f.pins;
                frame = it->second;
                co_return;
            }
            // Mid-fill by another reader: counts as a hit (no extra wire
            // read). Post our own staged WRs first -- if the fill we are
            // about to wait on is ours (duplicate line in one batch) or
            // part of a wait chain, parking with unposted fills would
            // deadlock the chain.
            hits_.add();
            co_await ctx.postSend();
            co_await parkOnFrame(f);
            continue;
        }
        std::uint32_t fi = allocFrame(ctx, staged);
        if (fi == kNoFrame) {
            frame = kNoFrame;
            co_return;
        }
        Frame &f = frames_[fi];
        f.key = key;
        f.state = FrameState::Loading;
        table_.emplace(key, fi);
        misses_.add();
        ctx.stageCacheFill(line_ptr,
                           MemSpan{frameBytes(fi), cfg_.lineBytes},
                           fillCookie(fi));
        staged = true;
        ++f.pins;
        f.refBit = true;
        frame = fi;
        co_return;
    }
}

sim::Task
BufferManager::readParts(SmartCtx &ctx, const ReadPart *parts,
                         std::uint32_t nparts)
{
    assert(nparts <= kMaxParts);
    std::uint32_t lineFrame[kMaxBatchLines];
    std::uint32_t nLines = 0;
    bool staged = false;

    for (std::uint32_t pi = 0; pi < nparts; ++pi) {
        const ReadPart &p = parts[pi];
        std::uint32_t blade = ctx.bladeIndex(p.src);
        checkIncarnation(blade);
        std::uint64_t first = p.src.offset / cfg_.lineBytes;
        std::uint64_t last =
            (p.src.offset + p.dst.len - 1) / cfg_.lineBytes;
        for (std::uint64_t li = first; li <= last; ++li) {
            assert(nLines < kMaxBatchLines);
            RemotePtr line_ptr{p.src.blade, p.src.rkey,
                               li * cfg_.lineBytes};
            LineKey key = makeKey(blade, li);
            std::uint32_t frame = kNoFrame;
            co_await ensureLinePinned(ctx, line_ptr, key, frame, staged);
            if (frame == kNoFrame) {
                // Pool exhausted: serve this slice straight off the wire.
                exhausted_.add();
                std::uint64_t from =
                    std::max(li * cfg_.lineBytes,
                             static_cast<std::uint64_t>(p.src.offset));
                std::uint64_t to =
                    std::min((li + 1) * static_cast<std::uint64_t>(
                                            cfg_.lineBytes),
                             p.src.offset + p.dst.len);
                ctx.read(RemotePtr{p.src.blade, p.src.rkey, from},
                         MemSpan{p.dst.bytes() + (from - p.src.offset),
                                 static_cast<std::uint32_t>(to - from)});
                staged = true;
            }
            lineFrame[nLines++] = frame;
        }
    }

    if (staged) {
        co_await ctx.postSend();
        co_await ctx.sync();
    }

    if (ctx.failed()) {
        bool straggler =
            ctx.lastError().kind == VerbError::Kind::Timeout;
        for (std::uint32_t i = 0; i < nLines; ++i) {
            std::uint32_t frame = lineFrame[i];
            if (frame == kNoFrame)
                continue;
            Frame &f = frames_[frame];
            --f.pins;
            if (f.state == FrameState::Loading && !f.abandoned)
                abortFill(frame, straggler);
            else if (f.detached)
                tryReclaim(frame);
        }
        co_return;
    }

    // Copy hit/filled lines out to the destinations and release pins.
    std::uint32_t rec = 0;
    for (std::uint32_t pi = 0; pi < nparts; ++pi) {
        const ReadPart &p = parts[pi];
        std::uint64_t first = p.src.offset / cfg_.lineBytes;
        std::uint64_t last =
            (p.src.offset + p.dst.len - 1) / cfg_.lineBytes;
        for (std::uint64_t li = first; li <= last; ++li) {
            std::uint32_t frame = lineFrame[rec++];
            if (frame == kNoFrame)
                continue; // landed directly off the wire
            std::uint64_t from =
                std::max(li * cfg_.lineBytes,
                         static_cast<std::uint64_t>(p.src.offset));
            std::uint64_t to =
                std::min((li + 1) *
                             static_cast<std::uint64_t>(cfg_.lineBytes),
                         p.src.offset + p.dst.len);
            assert(frames_[frame].state == FrameState::Ready);
            std::memcpy(p.dst.bytes() + (from - p.src.offset),
                        frameBytes(frame) + (from - li * cfg_.lineBytes),
                        to - from);
            unpin(frame);
        }
    }

    co_await ctx.cacheCharge(static_cast<sim::Time>(nLines) * kHitNs);
}

sim::Task
BufferManager::pinLine(SmartCtx &ctx, const RemotePtr &p, std::uint32_t len,
                       const std::uint8_t *&view, std::uint32_t &frame)
{
    frame = kNoFrame;
    if (len == 0)
        co_return;
    std::uint64_t li = p.offset / cfg_.lineBytes;
    if ((p.offset + len - 1) / cfg_.lineBytes != li)
        co_return; // spans lines; caller falls back to a copy
    std::uint32_t blade = ctx.bladeIndex(p);
    checkIncarnation(blade);
    bool staged = false;
    RemotePtr line_ptr{p.blade, p.rkey, li * cfg_.lineBytes};
    LineKey key = makeKey(blade, li);
    co_await ensureLinePinned(ctx, line_ptr, key, frame, staged);
    if (frame == kNoFrame) {
        exhausted_.add();
        co_return;
    }
    if (staged) {
        co_await ctx.postSend();
        co_await ctx.sync();
        if (ctx.failed()) {
            bool straggler =
                ctx.lastError().kind == VerbError::Kind::Timeout;
            Frame &f = frames_[frame];
            --f.pins;
            if (f.state == FrameState::Loading && !f.abandoned)
                abortFill(frame, straggler);
            else if (f.detached)
                tryReclaim(frame);
            frame = kNoFrame;
            co_return;
        }
    }
    assert(frames_[frame].state == FrameState::Ready);
    view = frameBytes(frame) + (p.offset - li * cfg_.lineBytes);
    co_await ctx.cacheCharge(kHitNs);
}

bool
BufferManager::tryCachedWrite(std::uint32_t blade, const RemotePtr &dst,
                              ConstMemSpan src)
{
    if (src.len == 0)
        return false;
    checkIncarnation(blade);
    std::uint64_t li = dst.offset / cfg_.lineBytes;
    if ((dst.offset + src.len - 1) / cfg_.lineBytes != li)
        return false;
    auto it = table_.find(makeKey(blade, li));
    if (it == table_.end())
        return false;
    Frame &f = frames_[it->second];
    if (f.state != FrameState::Ready || f.detached)
        return false;
    std::memcpy(frameBytes(it->second) + (dst.offset - li * cfg_.lineBytes),
                src.data, src.len);
    f.dirty = true;
    ++f.dirtyGen; // an in-flight write-back no longer covers these bytes
    f.refBit = true;
    hits_.add();
    return true;
}

void
BufferManager::noteBypassWrite(std::uint32_t blade, std::uint64_t offset,
                               ConstMemSpan src)
{
    if (src.len == 0 || table_.empty())
        return;
    std::uint64_t first = offset / cfg_.lineBytes;
    std::uint64_t last = (offset + src.len - 1) / cfg_.lineBytes;
    for (std::uint64_t li = first; li <= last; ++li) {
        auto it = table_.find(makeKey(blade, li));
        if (it == table_.end())
            continue;
        Frame &f = frames_[it->second];
        std::uint64_t from = std::max(li * cfg_.lineBytes, offset);
        std::uint64_t to =
            std::min((li + 1) * static_cast<std::uint64_t>(cfg_.lineBytes),
                     offset + src.len);
        const std::uint8_t *sb = src.bytes() + (from - offset);
        std::uint32_t in_line =
            static_cast<std::uint32_t>(from - li * cfg_.lineBytes);
        if (f.state == FrameState::Ready) {
            std::memcpy(frameBytes(it->second) + in_line, sb, to - from);
        } else if (f.state == FrameState::Loading) {
            // The fill may land bytes predating this write; remember the
            // payload and re-apply it when the fill completes.
            f.patches.push_back(
                Patch{in_line, std::vector<std::uint8_t>(sb, sb + (to - from))});
        }
    }
}

std::uint64_t
BufferManager::atomicCookie(std::uint32_t blade, std::uint64_t offset)
{
    // Unconditional: the line may become resident between post and
    // completion, and the invalidation must still land.
    return kCookieInvalidate | makeKey(blade, offset / cfg_.lineBytes);
}

bool
BufferManager::lineDirty(std::uint32_t blade, std::uint64_t offset) const
{
    auto it = table_.find(makeKey(blade, offset / cfg_.lineBytes));
    if (it == table_.end())
        return false;
    const Frame &f = frames_[it->second];
    // An in-flight write-back also orders before a subsequent atomic, so
    // treat it as "dirty" for flushLine purposes.
    return f.dirty || f.wbInFlight;
}

sim::Task
BufferManager::flushLine(SmartCtx &ctx, std::uint32_t blade,
                         std::uint64_t offset)
{
    LineKey key = makeKey(blade, offset / cfg_.lineBytes);
    for (;;) {
        auto it = table_.find(key);
        if (it == table_.end())
            co_return;
        Frame &f = frames_[it->second];
        if (f.state != FrameState::Ready || (!f.dirty && !f.wbInFlight))
            co_return;
        if (f.dirty && !f.wbInFlight) {
            stageWriteBack(ctx, it->second);
            co_await ctx.postSend();
            co_await ctx.sync();
            if (ctx.failed())
                co_return;
            continue;
        }
        // Another round's write-back is in flight: wait for its CQE.
        co_await ctx.postSend();
        co_await parkOnFrame(f);
    }
}

sim::Task
BufferManager::flushAll(SmartCtx &ctx)
{
    for (;;) {
        bool staged_any = false;
        std::uint32_t parked = kNoFrame;
        for (std::uint32_t i = 0; i < numFrames(); ++i) {
            Frame &f = frames_[i];
            if (f.state != FrameState::Ready)
                continue;
            if (f.dirty && !f.wbInFlight) {
                stageWriteBack(ctx, i);
                staged_any = true;
            } else if (f.wbInFlight && parked == kNoFrame) {
                parked = i;
            }
        }
        if (staged_any) {
            co_await ctx.postSend();
            co_await ctx.sync();
            if (ctx.failed())
                co_return;
            continue;
        }
        if (parked == kNoFrame)
            co_return;
        co_await ctx.postSend();
        co_await parkOnFrame(frames_[parked]);
    }
}

void
BufferManager::flushBlade(std::uint32_t blade)
{
    for (std::uint32_t i = 0; i < numFrames(); ++i) {
        Frame &f = frames_[i];
        if (f.state == FrameState::Free || keyBlade(f.key) != blade)
            continue;
        if (f.detached) {
            // Zombie of this blade: any straggler write-back now targets
            // an invalidated rkey and NAKs harmlessly; let it go.
            f.wbInFlight = false;
            f.dirty = false;
            tryReclaim(i);
            continue;
        }
        invalidations_.add();
        if (f.state == FrameState::Loading) {
            f.staleOnFill = true; // fill bytes may predate the restart
            detach(f);
            wakeWaiters(f);
            continue;
        }
        f.dirty = false;
        f.wbInFlight = false;
        detach(f);
        wakeWaiters(f);
        tryReclaim(i);
    }
}

std::uint32_t
BufferManager::handoffRange(std::uint32_t from_blade,
                            std::uint32_t to_blade, std::uint64_t offset,
                            std::uint64_t len)
{
    if (len == 0)
        return 0;
    std::uint32_t moved = 0;
    std::uint64_t first = offset / cfg_.lineBytes;
    std::uint64_t last = (offset + len - 1) / cfg_.lineBytes;
    // Probe per line of the migrated range (never iterate the table:
    // iteration order would leak hash-map layout into the event stream).
    for (std::uint64_t li = first; li <= last; ++li) {
        auto it = table_.find(makeKey(from_blade, li));
        if (it == table_.end())
            continue;
        std::uint32_t idx = it->second;
        Frame &f = frames_[idx];
        if (f.state == FrameState::Loading) {
            // Fill from the source still in flight: its bytes may
            // predate the migration copy. Invalidate; readers refetch
            // from the destination.
            invalidations_.add();
            f.staleOnFill = true;
            detach(f);
            wakeWaiters(f);
            continue;
        }
        LineKey nk = makeKey(to_blade, li);
        auto dst = table_.find(nk);
        if (dst != table_.end()) {
            // The destination line is already resident (e.g. a racing
            // fill after the map flipped): keep it, drop the source copy.
            invalidations_.add();
            f.dirty = false;
            detach(f);
            wakeWaiters(f);
            tryReclaim(idx);
            continue;
        }
        table_.erase(it);
        f.key = nk;
        table_.emplace(nk, idx);
        if (f.wbInFlight) {
            // The in-flight write-back targeted the source blade; those
            // bytes never reach the destination, so the frame must be
            // written back again under the new key.
            f.dirty = true;
            ++f.dirtyGen;
        }
        handoffs_.add();
        ++moved;
    }
    return moved;
}

void
BufferManager::checkIncarnation(std::uint32_t blade)
{
    if (seenIncarnation_.size() <= blade)
        seenIncarnation_.resize(rt_.numBlades(), 0);
    std::uint64_t inc = rt_.bladeIncarnation(blade);
    if (inc != seenIncarnation_[blade]) {
        seenIncarnation_[blade] = inc;
        flushBlade(blade);
    }
}

void
BufferManager::invalidateKey(LineKey key)
{
    auto it = table_.find(key);
    if (it == table_.end())
        return;
    std::uint32_t idx = it->second;
    Frame &f = frames_[idx];
    invalidations_.add();
    if (f.state == FrameState::Loading) {
        // Mid-fill: the READ may have been served before the atomic
        // applied. Mark the fill stale (dropped when it lands) and send
        // parked readers back to a fresh lookup -- their refetch posts
        // after this CQE, so it observes the post-atomic bytes.
        f.staleOnFill = true;
        detach(f);
        wakeWaiters(f);
        return;
    }
    // The atomic superseded any dirty cached bytes on this line.
    f.dirty = false;
    detach(f);
    wakeWaiters(f);
    tryReclaim(idx);
}

void
BufferManager::abortFill(std::uint32_t idx, bool straggler_possible)
{
    Frame &f = frames_[idx];
    if (f.state != FrameState::Loading || f.abandoned)
        return;
    detach(f);
    wakeWaiters(f);
    if (straggler_possible) {
        // A timed-out round's WR may still complete later; the frame
        // must stay quarantined until that CQE lands (onCqe reclaims).
        f.abandoned = true;
        return;
    }
    f.state = FrameState::Ready; // placeholder; detached, bytes untrusted
    f.patches.clear();
    tryReclaim(idx);
}

void
BufferManager::onCqe(const rnic::WorkReq &wr, rnic::WcStatus status)
{
    std::uint64_t kind = wr.cacheCookie >> 62;
    if (kind == kCookieInvalidate >> 62) {
        if (status == rnic::WcStatus::Success)
            invalidateKey(wr.cacheCookie & ~(3ull << 62));
        return;
    }
    std::uint32_t idx =
        static_cast<std::uint32_t>(wr.cacheCookie & 0xffffffffu);
    if (idx == 0 || idx > numFrames())
        return;
    --idx;
    Frame &f = frames_[idx];
    if ((f.seq & 0x3fffffff) !=
        ((wr.cacheCookie >> 32) & 0x3fffffff))
        return; // frame was reclaimed and reused; stale completion

    if (kind == kCookieFill >> 62) {
        if (f.abandoned) {
            // The straggler of an abandoned fill finally landed (with
            // whatever status): the frame can rest.
            f.abandoned = false;
            f.state = FrameState::Ready;
            f.patches.clear();
            wakeWaiters(f);
            tryReclaim(idx);
            return;
        }
        if (f.state == FrameState::Ready) {
            // Duplicate completion (timeout retry raced the straggler):
            // the landing DMA may have clobbered applied patches, so
            // drop the frame rather than serve possibly-stale bytes.
            invalidations_.add();
            detach(f);
            wakeWaiters(f);
            tryReclaim(idx);
            return;
        }
        if (f.state != FrameState::Loading)
            return;
        if (status != rnic::WcStatus::Success) {
            if (rt_.sim().faultPlane() == nullptr) {
                // No retry machinery is armed; unwind defensively.
                detach(f);
                f.state = FrameState::Ready;
                f.patches.clear();
                wakeWaiters(f);
                tryReclaim(idx);
            }
            // Under a fault plane the owning sync round re-posts this WR
            // (same cookie); stay Loading until it resolves.
            return;
        }
        if (f.staleOnFill) {
            f.staleOnFill = false;
            f.state = FrameState::Ready; // zombie; pinned readers may
            f.patches.clear();           // still copy the old snapshot
            wakeWaiters(f);
            tryReclaim(idx);
            return;
        }
        for (const Patch &p : f.patches)
            std::memcpy(frameBytes(idx) + p.off, p.bytes.data(),
                        p.bytes.size());
        f.patches.clear();
        f.state = FrameState::Ready;
        f.refBit = true;
        wakeWaiters(f);
        return;
    }

    // Write-back completion.
    if (status == rnic::WcStatus::Success) {
        f.wbInFlight = false;
        if (f.wbGen == f.dirtyGen)
            f.dirty = false; // no cached write raced the write-back
        wakeWaiters(f);
        tryReclaim(idx);
    }
    // On error the owning round is still retrying the WR: keep
    // wbInFlight so the frame bytes stay stable until a success lands
    // (or the blade's incarnation bumps and flushBlade drops the line).
}

} // namespace smart::cache
