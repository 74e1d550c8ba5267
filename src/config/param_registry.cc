#include "config/param_registry.hh"

#include "sim/logging.hh"

namespace dtsim {
namespace config {

void
ParamRegistry::insert(ParamEntry e)
{
    if (index_.count(e.name))
        panic("ParamRegistry: duplicate parameter '%s'",
              e.name.c_str());
    index_.emplace(e.name, entries_.size());
    entries_.push_back(std::move(e));
}

bool
ParamRegistry::has(const std::string& name) const
{
    return index_.count(name) != 0;
}

bool
ParamRegistry::set(const std::string& name, const std::string& text,
                   std::string& err)
{
    const auto it = index_.find(name);
    if (it == index_.end()) {
        err = "unknown parameter '" + name +
              "' (dtsim_cli --list-params shows every key)";
        return false;
    }
    std::string why;
    if (!entries_[it->second].set(text, why)) {
        err = name + ": " + why;
        return false;
    }
    return true;
}

bool
ParamRegistry::sameField(const std::string& a, const std::string& b) const
{
    if (a == b)
        return true;
    const auto ia = index_.find(a);
    const auto ib = index_.find(b);
    return ia != index_.end() && ib != index_.end() &&
           entries_[ia->second].field == entries_[ib->second].field;
}

std::string
ParamRegistry::get(const std::string& name) const
{
    const auto it = index_.find(name);
    if (it == index_.end())
        panic("ParamRegistry::get: unknown parameter '%s'",
              name.c_str());
    return entries_[it->second].get();
}

} // namespace config
} // namespace dtsim
