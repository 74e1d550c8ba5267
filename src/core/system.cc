#include "core/system.hh"

namespace dtsim {

const char*
systemKindName(SystemKind kind)
{
    switch (kind) {
      case SystemKind::Segm: return "Segm";
      case SystemKind::Block: return "Block";
      case SystemKind::NoRA: return "No-RA";
      case SystemKind::FOR: return "FOR";
    }
    return "?";
}

std::string
SystemConfig::label() const
{
    std::string s = systemKindName(kind);
    if (hdc.enabled())
        s += "+HDC";
    return s;
}

ControllerConfig
SystemConfig::controllerConfig() const
{
    ControllerConfig c;
    c.scheduler = scheduler;
    c.segmentPolicy = segmentPolicy;
    c.blockPolicy = blockPolicy;
    c.hdcBytes = hdc.enabled() ? hdc.budgetBytesPerDisk : 0;
    c.seed = seed;
    switch (kind) {
      case SystemKind::Segm:
        c.org = CacheOrg::Segment;
        c.readAhead = ReadAheadMode::Blind;
        break;
      case SystemKind::Block:
        c.org = CacheOrg::Block;
        c.readAhead = ReadAheadMode::Blind;
        break;
      case SystemKind::NoRA:
        c.org = CacheOrg::Block;
        c.readAhead = ReadAheadMode::None;
        break;
      case SystemKind::FOR:
        c.org = CacheOrg::Block;
        c.readAhead = ReadAheadMode::FOR;
        break;
    }
    return c;
}

ArrayConfig
SystemConfig::arrayConfig() const
{
    ArrayConfig a;
    a.disks = disks;
    a.stripeUnitBytes = stripeUnitBytes;
    a.disk = disk;
    a.controller = controllerConfig();
    a.mirrored = mirrored;
    a.fault = fault;
    return a;
}

} // namespace dtsim
