/**
 * @file
 * A gem5-style typed parameter registry.
 *
 * Every configurable field of the simulator is declared once -- name,
 * type, default, and one-line doc -- bound to the live struct field it
 * controls. The registry is then the single surface for:
 *
 *  - checked parsing with precise errors (config/parse.hh),
 *  - config-file loading and --set overrides (config/config_file.hh),
 *  - the canonical effective-config dump that makes every stats dump
 *    and trace file self-describing and round-trippable,
 *  - generated --help / --list-params / reference documentation.
 *
 * A registry does not own the structs it binds; bind it to structs
 * that outlive it (see config/sim_config.hh for the standard set).
 */

#ifndef DTSIM_CONFIG_PARAM_REGISTRY_HH
#define DTSIM_CONFIG_PARAM_REGISTRY_HH

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "config/parse.hh"

namespace dtsim {
namespace config {

/** One registered parameter. */
struct ParamEntry
{
    std::string name;  ///< Full dotted key, e.g. "system.disks".
    std::string type;  ///< "u64", "double", "bool", "string", or
                       ///< the token list of an enum ("segm|block|...").
    std::string doc;   ///< One-line description.

    /** The bound field's value at registration time, formatted. */
    std::string defaultValue;

    /** Read the bound field, canonically formatted. */
    std::function<std::string()> get;

    /** Parse `text` into the bound field; false + err on failure. */
    std::function<bool(const std::string& text, std::string& err)>
        set;
};

class ParamRegistry
{
  public:
    /**
     * Register a scalar parameter bound to `field`. The field's
     * current value is captured as the documented default. Duplicate
     * names panic (a registration bug, not a user error).
     */
    template <typename T>
    void
    add(const std::string& name, T& field, const std::string& doc)
    {
        ParamEntry e;
        e.name = name;
        e.type = typeName(field);
        e.doc = doc;
        e.defaultValue = formatValue(field);
        e.get = [&field]() { return formatValue(field); };
        e.set = [&field](const std::string& text, std::string& err) {
            return parseValue(text, field, err);
        };
        insert(std::move(e));
    }

    /** Register an enum parameter parsed/formatted via `table`. */
    template <typename E>
    void
    addEnum(const std::string& name, E& field,
            const EnumTable<E>& table, const std::string& doc)
    {
        ParamEntry e;
        e.name = name;
        e.type = table.tokens();
        e.doc = doc;
        e.defaultValue = table.format(field);
        e.get = [&field, &table]() { return table.format(field); };
        e.set = [&field, &table](const std::string& text,
                                 std::string& err) {
            return table.parse(text, field, err);
        };
        insert(std::move(e));
    }

    /** Whether `name` is a registered parameter. */
    bool has(const std::string& name) const;

    /**
     * Set parameter `name` from `text`. Returns false and fills
     * `err` (including the parameter name) on an unknown name or a
     * value that fails to parse.
     */
    bool set(const std::string& name, const std::string& text,
             std::string& err);

    /**
     * Current value of `name`, canonically formatted. panic() on an
     * unknown name (a caller bug; user input goes through set/has).
     */
    std::string get(const std::string& name) const;

    /** All entries, in registration order (= dump order). */
    const std::vector<ParamEntry>& entries() const
    {
        return entries_;
    }

  private:
    static std::string typeName(const std::uint64_t&) { return "u64"; }
    static std::string typeName(const unsigned&) { return "u32"; }
    static std::string typeName(const double&) { return "double"; }
    static std::string typeName(const bool&) { return "bool"; }
    static std::string typeName(const std::string&)
    {
        return "string";
    }

    void insert(ParamEntry e);

    std::vector<ParamEntry> entries_;
    std::unordered_map<std::string, std::size_t> index_;
};

} // namespace config
} // namespace dtsim

#endif // DTSIM_CONFIG_PARAM_REGISTRY_HH
