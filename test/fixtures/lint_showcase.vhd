library IEEE;
use IEEE.electrical_systems.all;

-- Deliberately defective model: the VHDL-AMS twin of lint_showcase.vams,
-- exercised by the lint golden tests and the CI lint job (which
-- asserts a non-zero exit). Lint it with --inputs tin. One run reports:
--   AMS016  zero-default generic used as a divisor (in helper)
--   AMS020  nodes f1, f2 not connected to ground
--   AMS021  the f1-f2 island unreachable from ground
--   AMS030  structurally under-determined (V(s,gnd) sensed, never solved)
--   AMS011  unused generic

entity helper is
  generic (div0 : real := 0.0);
  port (terminal a, b : electrical);
end entity;

architecture behav of helper is
  quantity v across i through a to b;
begin
  i == v / div0;
end architecture;

entity showcase is
  generic (unused_p : real := 3.0);
  port (terminal tin, tout : electrical);
end entity;

architecture behav of showcase is
  terminal s, f1, f2 : electrical;
  quantity vout across iout through tout to ground;
  quantity vs across s to ground;
  quantity vf across jf through f1 to f2;
begin
  vout == 2.0 * vs;
  jf == 1.0e-3 * vf;
end architecture;
