// A stand-in for the parts of SystemC and SystemC-AMS that the
// generated SC-DE and SC-AMS/TDF models use, so those models compile
// and run without the libraries. There is no scheduler: a port holds
// one value, and a driver sets the input ports, runs one activation
// (sc_module::run for the SC_METHOD, processing() for a TDF module)
// and reads the output ports. Include it through files named
// <systemc> and <systemc-ams>, as the generated units do.
#ifndef AMSVP_SYSTEMC_STANDIN_H
#define AMSVP_SYSTEMC_STANDIN_H

#include <functional>

namespace sc_core {

enum sc_time_unit { SC_FS, SC_PS, SC_NS, SC_US, SC_MS, SC_SEC };

// A value and its unit, kept as given, so a time in SC_SEC reads
// back as exactly the double it was built from.
class sc_time {
public:
  sc_time() : value_(0.0), unit_(SC_SEC) {}
  sc_time(double value, sc_time_unit unit) : value_(value), unit_(unit) {}
  double value() const { return value_; }
  sc_time_unit unit() const { return unit_; }

private:
  double value_;
  sc_time_unit unit_;
};

typedef const char *sc_module_name;

class sc_module {
public:
  // One activation of the process registered with SC_METHOD.
  void run() { method_(); }
  // The delay the last activation asked for with next_trigger.
  const sc_time &trigger() const { return trigger_; }

protected:
  void next_trigger(const sc_time &t) { trigger_ = t; }
  std::function<void()> method_;

private:
  sc_time trigger_;
};

template <class T> class sc_in {
public:
  void set(const T &v) { value_ = v; }
  const T &read() const { return value_; }

private:
  T value_ = T();
};

template <class T> class sc_out {
public:
  void write(const T &v) { value_ = v; }
  const T &read() const { return value_; }

private:
  T value_ = T();
};

} // namespace sc_core

#define SC_MODULE(name) struct name : ::sc_core::sc_module
#define SC_CTOR(name) name(::sc_core::sc_module_name)
#define SC_METHOD(f) this->method_ = [this] { this->f(); }

namespace sca_tdf {

template <class T> using sca_in = ::sc_core::sc_in<T>;
template <class T> using sca_out = ::sc_core::sc_out<T>;

class sca_module {
public:
  virtual ~sca_module() {}
  virtual void set_attributes() {}
  virtual void processing() {}
  // The timestep set_attributes() asked for.
  const ::sc_core::sc_time &timestep() const { return timestep_; }

protected:
  void set_timestep(double value, ::sc_core::sc_time_unit unit) {
    timestep_ = ::sc_core::sc_time(value, unit);
  }

private:
  ::sc_core::sc_time timestep_;
};

} // namespace sca_tdf

#define SCA_TDF_MODULE(name) struct name : ::sca_tdf::sca_module
#define SCA_CTOR(name) name(::sc_core::sc_module_name)

#endif
