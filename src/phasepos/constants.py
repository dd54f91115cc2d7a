"""Physical constants."""

SPEED_OF_LIGHT = 299_792_458.0  # m/s
