"""Physical constants, and the block the receive path streams in."""

SPEED_OF_LIGHT = 299_792_458.0  # m/s
STREAM_BLOCK = 2 ** 15          # samples add_awgn draws, and ccp_measure prefix-sums, at once
