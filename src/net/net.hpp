// Umbrella header for the network front end.
//
// Typical use (server side; see tools/factorhd_serve.cpp `listen`):
//
//   net::NetServer server(engine, net::server_options_from_env());
//   server.start();                       // 127.0.0.1, port() tells which
//   ...
//   server.stop();                        // graceful drain
//
// Client side:
//
//   net::NetClient client("127.0.0.1", server.port());
//   core::FactorizeResult r = client.factorize(target, opts);
//   // r is bit-identical to engine.submit(target, opts).get()
#pragma once

#include "net/client.hpp"     // IWYU pragma: export
#include "net/protocol.hpp"   // IWYU pragma: export
#include "net/server.hpp"     // IWYU pragma: export
